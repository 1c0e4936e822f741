//! `aldsp-client` — run one query against a running `aldspd`.
//!
//! ```text
//! aldsp-client --addr 127.0.0.1:PORT --query 'QUERY' \
//!     [--principal NAME] [--roles a,b] [--token T] [--deadline-ms N]
//! ```
//!
//! Prints the reassembled result text on stdout and the delivered
//! count on stderr; exits non-zero on any typed server error.

#![forbid(unsafe_code)]

use aldsp_client::Client;
use aldsp_protocol::WireOptions;
use std::process::ExitCode;

struct Args {
    addr: String,
    query: String,
    principal: String,
    roles: Vec<String>,
    token: String,
    deadline_ms: u64,
}

fn parse_args() -> Result<Args, String> {
    let mut addr = None;
    let mut query = None;
    let mut principal = "demo".to_string();
    let mut roles = Vec::new();
    let mut token = String::new();
    let mut deadline_ms = 0;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = |name: &str| it.next().ok_or_else(|| format!("{name} expects a value"));
        match flag.as_str() {
            "--addr" => addr = Some(val("--addr")?),
            "--query" => query = Some(val("--query")?),
            "--principal" => principal = val("--principal")?,
            "--roles" => {
                roles = val("--roles")?
                    .split(',')
                    .filter(|r| !r.is_empty())
                    .map(String::from)
                    .collect();
            }
            "--token" => token = val("--token")?,
            "--deadline-ms" => {
                deadline_ms = val("--deadline-ms")?
                    .parse()
                    .map_err(|e| format!("--deadline-ms: {e}"))?;
            }
            "--help" | "-h" => {
                return Err("usage: aldsp-client --addr HOST:PORT --query 'Q' \
                     [--principal NAME] [--roles a,b] [--token T] [--deadline-ms N]"
                    .into())
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        addr: addr.ok_or("--addr is required")?,
        query: query.ok_or("--query is required")?,
        principal,
        roles,
        token,
        deadline_ms,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let roles: Vec<&str> = args.roles.iter().map(String::as_str).collect();
    let mut client =
        match Client::connect_with_token(&args.addr, &args.principal, &roles, &args.token) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("aldsp-client: connect failed: {e}");
                return ExitCode::FAILURE;
            }
        };
    let options = WireOptions {
        deadline_ms: args.deadline_ms,
        ..WireOptions::default()
    };
    match client.execute(&args.query, &options) {
        Ok(result) => {
            println!("{}", result.text());
            eprintln!("delivered {} item(s)", result.delivered);
            let _ = client.goodbye();
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("aldsp-client: {e}");
            ExitCode::FAILURE
        }
    }
}

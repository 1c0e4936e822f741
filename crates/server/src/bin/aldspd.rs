//! `aldspd` — the ALDSP demo daemon.
//!
//! Serves the built-in running-example deployment (CUSTOMER/ORDER +
//! CREDIT_CARD over two simulated relational sources) on a TCP port,
//! then runs until stdin reaches EOF (or the process is killed). The
//! stdin convention keeps shutdown scriptable without signal handling:
//! `tier1.sh` spawns `aldspd`, pipes queries through `aldsp-client`,
//! closes the daemon's stdin, and asserts a clean zero exit.
//!
//! ```text
//! aldspd [--port N] [--customers N] [--token T] [--admission MAX QUEUE]
//! ```
//!
//! `--port 0` (the default) binds an ephemeral port; the actual
//! address is printed as `aldspd listening on 127.0.0.1:<port>`.

#![forbid(unsafe_code)]

use aldsp_server::{serve, WireConfig};
use std::io::{BufRead, Write};
use std::process::ExitCode;
use std::sync::Arc;

struct Args {
    port: u16,
    customers: usize,
    token: Option<String>,
    admission: Option<(usize, usize)>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        port: 0,
        customers: 25,
        token: None,
        admission: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = |name: &str| it.next().ok_or_else(|| format!("{name} expects a value"));
        match flag.as_str() {
            "--port" => {
                args.port = val("--port")?.parse().map_err(|e| format!("--port: {e}"))?;
            }
            "--customers" => {
                args.customers = val("--customers")?
                    .parse()
                    .map_err(|e| format!("--customers: {e}"))?;
            }
            "--token" => args.token = Some(val("--token")?),
            "--admission" => {
                let max = val("--admission MAX")?
                    .parse()
                    .map_err(|e| format!("--admission MAX: {e}"))?;
                let queue = val("--admission QUEUE")?
                    .parse()
                    .map_err(|e| format!("--admission QUEUE: {e}"))?;
                args.admission = Some((max, queue));
            }
            "--help" | "-h" => {
                return Err(
                    "usage: aldspd [--port N] [--customers N] [--token T] [--admission MAX QUEUE]"
                        .into(),
                )
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let world = aldsp_server::demo::demo_world_tuned(args.customers, |b| match args.admission {
        Some((max, queue)) => b.admission(max, queue),
        None => b,
    });
    let config = WireConfig {
        token: args.token.clone(),
    };
    let mut listener = match serve(("127.0.0.1", args.port), Arc::clone(&world.server), config) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("aldspd: bind failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("aldspd listening on {}", listener.local_addr());
    let _ = std::io::stdout().flush();
    // serve until our stdin closes — the scriptable shutdown signal
    let stdin = std::io::stdin();
    let mut line = String::new();
    loop {
        line.clear();
        match stdin.lock().read_line(&mut line) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
    }
    listener.shutdown();
    println!("aldspd: clean shutdown");
    ExitCode::SUCCESS
}

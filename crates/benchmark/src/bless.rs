//! `--bless`: compute every golden answer on a naive reference server
//! — pushdown off, expression VM off, nested-loop joins, one worker,
//! no PP-k prefetch, no materialization, no simulated latency — so the
//! expectation never comes from the configuration under test.

use crate::fixtures::{build_server, build_sources, profile_fn, ssn_policy, WorldSpec};
use crate::golden::{self, Golden};
use crate::layers;
use crate::workloads::{Entry, Kind, Request, Via};
use aldsp::security::{Principal, SecurityPolicy};
use aldsp::xdm::item::Item;
use aldsp::xdm::QName;
use aldsp::{AldspServer, ExecutionOptions, JoinStrategy, PushdownLevel};

pub fn bless(kind: Kind) -> Result<usize, String> {
    let (entries, classes) = kind.plan();
    let sources = build_sources(WorldSpec {
        roundtrip_us: 0,
        ..kind.world()
    });
    let policy = match kind {
        Kind::WirePoint | Kind::AdhocCold => ssn_policy(),
        _ => SecurityPolicy::new(),
    };
    let server = build_server(&sources, |b| {
        b.security(policy).vm(false).execution(
            ExecutionOptions::new()
                .pushdown(PushdownLevel::Off)
                .join_strategy(JoinStrategy::NestedLoop)
                .ppk_prefetch_depth(0)
                .workers(1),
        )
    });
    let principal = Principal::new("bench", &["csr"]);
    let mut golden = Golden::new();
    if kind == Kind::FederatedPpk {
        golden = federated(&server, &principal, &entries)?;
    } else {
        // write classes index customers, not entries: every entry is a read
        let reads = classes.iter().filter(|c| c.via != Via::Write);
        for entry in reads.flat_map(|c| &entries[c.first..c.first + c.len]) {
            let resp = layers::core_execute(&server, &entry.request, &principal)
                .map_err(|e| format!("{}: {e}", entry.key))?;
            golden.insert(
                entry.key.clone(),
                golden::digest(&layers::xdm_serialize(resp.items())),
            );
        }
    }
    golden::save(kind.name(), &golden).map_err(|e| e.to_string())?;
    Ok(golden.len())
}

/// `federated_ppk` asks 2,010 selections of one view. Evaluating each
/// on the naive server scans both sources per profile per request
/// (hours); instead the view is evaluated naively *once* and the
/// selections are applied here, by their definition: `getProfileByID`
/// and `getProfileByLastName` are `getProfile()` filtered on `CID` and
/// on `LAST_NAME`, in document order.
fn federated(
    server: &AldspServer,
    principal: &Principal,
    entries: &[Entry],
) -> Result<Golden, String> {
    let all = Request::Call {
        function: profile_fn("getProfile"),
        args: vec![],
    };
    let resp = layers::core_execute(server, &all, principal)?;
    let child = |item: &Item, name: &str| -> String {
        let name = QName::local(name);
        item.as_node()
            .and_then(|n| n.child_elements(&name).next().map(|c| c.string_value()))
            .unwrap_or_default()
    };
    let profiles: Vec<(String, String, String)> = resp
        .items()
        .iter()
        .map(|item| {
            (
                child(item, "CID"),
                child(item, "LAST_NAME"),
                layers::xdm_serialize(std::slice::from_ref(item)),
            )
        })
        .collect();
    let mut golden = Golden::new();
    for entry in entries {
        let Request::Call { function, args } = &entry.request else {
            return Err(format!("{}: not a call", entry.key));
        };
        let wanted = layers::xdm_serialize(&args[0]);
        let by_id = function.local_name() == "getProfileByID";
        let selected = profiles
            .iter()
            .filter(|(id, last, _)| {
                if by_id {
                    *id == wanted
                } else {
                    *last == wanted
                }
            })
            .map(|(_, _, text)| text.as_str());
        golden.insert(entry.key.clone(), golden::digest_parts(selected));
    }
    Ok(golden)
}

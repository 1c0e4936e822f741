//! The five workloads: which world each runs on, the finite universe
//! of distinct requests it draws from, the class mix, and how `--seed`
//! turns that into an op sequence.
//!
//! Names are stable; later issues cite them.

use crate::fixtures::{cid, profile_fn, Rng, WorldSpec, LAST_NAMES, PROLOG};
use aldsp::xdm::item::{Item, Sequence};
use aldsp::xdm::QName;

/// One request as the engine sees it.
#[derive(Debug, Clone)]
pub enum Request {
    /// Ad-hoc XQuery text.
    Query { text: String },
    /// A deployed data-service method with positional arguments.
    Call {
        function: QName,
        args: Vec<Sequence>,
    },
}

/// How an op class reaches the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Via {
    /// `AldspServer::execute`; the reply is serialized only to check it.
    InProcess,
    /// `AldspServer::execute` then `serialize_sequence`, both timed.
    InProcessSerialized,
    /// `Client::execute` over loopback.
    WireAdhoc,
    /// `Client::execute_prepared` over loopback.
    WirePrepared,
    /// `read_object` by CID, set `LAST_NAME`, `submit`; `entry` is the
    /// customer index.
    Write,
}

/// A distinct request and the name its golden answer is filed under.
#[derive(Debug, Clone)]
pub struct Entry {
    pub key: String,
    pub request: Request,
}

/// A class of ops: a contiguous slice of the universe (or, for
/// writes, of the customers), reached one way, holding `tenths` of
/// every ten consecutive ops.
#[derive(Debug, Clone)]
pub struct Class {
    pub name: &'static str,
    pub via: Via,
    pub first: usize,
    pub len: usize,
    pub tenths: usize,
}

#[derive(Debug, Clone, Copy)]
pub struct Op {
    pub class: usize,
    pub entry: usize,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    WirePoint,
    AdhocCold,
    ReportScan,
    FederatedPpk,
    ProfileRw,
}

pub const ALL: [Kind; 5] = [
    Kind::WirePoint,
    Kind::AdhocCold,
    Kind::ReportScan,
    Kind::FederatedPpk,
    Kind::ProfileRw,
];

/// Distinct cold texts of `adhoc_cold`: 16x the plan cache's 256
/// entries, so a cold text never finds its plan.
pub const COLD_TEXTS: usize = 4096;
const HOT_TEXTS: usize = 32;
const WIRE_HANDLES: usize = 64;
const TEMPLATES: usize = 6;

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::WirePoint => "wire_point",
            Kind::AdhocCold => "adhoc_cold",
            Kind::ReportScan => "report_scan",
            Kind::FederatedPpk => "federated_ppk",
            Kind::ProfileRw => "profile_rw",
        }
    }

    pub fn from_name(name: &str) -> Option<Kind> {
        ALL.into_iter().find(|k| k.name() == name)
    }

    /// The one line `BENCHMARK.json` records for the workload.
    pub fn why(self) -> &'static str {
        match self {
            Kind::WirePoint => "hot point lookups over loopback: protocol, server, client, security and core glue carry the cost; plan cache always hits",
            Kind::AdhocCold => "16x more distinct ad-hoc texts than plan-cache entries: parser and compiler carry the cost; plan cache inserts and evicts",
            Kind::ReportScan => "whole-table group, sort, cross-source join and construction, serialized: runtime, xdm and relational scans carry the cost",
            Kind::FederatedPpk => "Figure 3 profile over two 200us-roundtrip sources and a web service: source roundtrips and PP-k prefetch overlap carry the cost",
            Kind::ProfileRw => "90% materialized reads, 10% SDO writes through submit: matview hit and patch, updates and source prepare/commit carry the cost",
        }
    }

    /// World S (200 customers), L (the scan world), M (2,000 customers
    /// behind a simulated LAN) and the read-write world.
    pub fn world(self) -> WorldSpec {
        let (customers, roundtrip_us) = match self {
            Kind::WirePoint | Kind::AdhocCold => (200, 0),
            Kind::ReportScan => (REPORT_CUSTOMERS, 0),
            Kind::FederatedPpk => (2_000, 200),
            Kind::ProfileRw => (RW_CUSTOMERS, 0),
        };
        WorldSpec {
            customers,
            orders_per_customer: 3,
            cards_per_customer: 2,
            roundtrip_us,
        }
    }

    /// Frozen op rate: a run of `--seconds s` performs exactly
    /// `s * ops_per_second()` timed ops, so counters repeat exactly.
    /// Calibrated once on the reference host (2 cores, release build)
    /// so that the timed pass lasts about `s` seconds.
    pub fn ops_per_second(self) -> usize {
        match self {
            Kind::WirePoint => 16_000,
            Kind::AdhocCold => 3_000,
            Kind::ReportScan => 55,
            Kind::FederatedPpk => 80,
            Kind::ProfileRw => 310,
        }
    }

    /// Whether the workload runs confined to one processor (see
    /// `rerun_steadied` in `main.rs`). `federated_ppk` does not: its
    /// PP-k prefetch threads exist to overlap source waits with the
    /// driver's local work, and a second processor is part of that.
    pub fn confined(self) -> bool {
        self != Kind::FederatedPpk
    }

    /// The request universe and class mix.
    pub fn plan(self) -> (Vec<Entry>, Vec<Class>) {
        match self {
            Kind::WirePoint => wire_point(),
            Kind::AdhocCold => adhoc_cold(),
            Kind::ReportScan => report_scan(),
            Kind::FederatedPpk => federated_ppk(),
            Kind::ProfileRw => profile_rw(),
        }
    }

    /// `n` ops (a multiple of ten) drawn with `seed`. Every block of
    /// ten consecutive ops holds each class exactly `tenths` times, so
    /// class counts — and with them every per-op count — do not depend
    /// on the seed; the seed picks the order inside a block and which
    /// entry of its class each op asks for.
    pub fn ops(self, classes: &[Class], seed: u64, n: usize) -> Vec<Op> {
        assert_eq!(n % 10, 0, "op counts are whole blocks of ten");
        let mut rng = Rng::new(seed ^ (self as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F));
        let mut block: Vec<usize> = classes
            .iter()
            .enumerate()
            .flat_map(|(i, c)| std::iter::repeat_n(i, c.tenths))
            .collect();
        assert_eq!(block.len(), 10, "class tenths sum to ten");
        let mut ops = Vec::with_capacity(n);
        for _ in 0..n / 10 {
            for i in (1..block.len()).rev() {
                block.swap(i, rng.below(i + 1));
            }
            for &class in &block {
                let c = &classes[class];
                ops.push(Op {
                    class,
                    entry: c.first + rng.below(c.len),
                });
            }
        }
        ops
    }
}

/// Customers of the scan world. The issue sized it at 25,000; at that
/// size one op takes ~70 ms and a 10 s run cannot hold the 200 ops a
/// 95th percentile needs with room to spare, so the world is scaled to
/// what the time cap of the benchmark contract allows.
pub const REPORT_CUSTOMERS: usize = 10_000;

/// Customers of the read-write world. `submit` is quadratic in
/// database size (the finding the issue records), so the issue's 1,000
/// customers would give ~50 writes per run; this size gives ~300.
pub const RW_CUSTOMERS: usize = 400;

fn query(key: String, body: String) -> Entry {
    Entry {
        key,
        request: Request::Query {
            text: format!("{PROLOG}{body}"),
        },
    }
}

fn call(key: String, function: &str, args: &[&str]) -> Entry {
    Entry {
        key,
        request: Request::Call {
            function: profile_fn(function),
            args: args.iter().map(|a| vec![Item::str(a)]).collect(),
        },
    }
}

fn wire_point() -> (Vec<Entry>, Vec<Class>) {
    let customers = Kind::WirePoint.world().customers;
    // 64 hot customers spread over the table, SSN included so the
    // security rule has an element to mask on every reply
    let mut entries: Vec<Entry> = (0..WIRE_HANDLES)
        .map(|i| {
            let id = cid(i * customers / WIRE_HANDLES);
            query(
                format!("point/{id}"),
                format!(
                    "for $c in c:CUSTOMER() where $c/CID eq \"{id}\" \
                     return <P>{{$c/CID}}{{$c/LAST_NAME}}{{$c/FIRST_NAME}}{{$c/SSN}}</P>"
                ),
            )
        })
        .collect();
    entries.extend(LAST_NAMES.iter().map(|name| {
        query(
            format!("list/{name}"),
            format!(
                "for $c in c:CUSTOMER() where $c/LAST_NAME eq \"{name}\" \
                 return <P>{{$c/CID}}{{$c/SSN}}</P>"
            ),
        )
    }));
    let classes = vec![
        Class {
            name: "prepared",
            via: Via::WirePrepared,
            first: 0,
            len: WIRE_HANDLES,
            tenths: 7,
        },
        Class {
            name: "adhoc",
            via: Via::WireAdhoc,
            first: 0,
            len: WIRE_HANDLES,
            tenths: 2,
        },
        Class {
            name: "list",
            via: Via::WireAdhoc,
            first: WIRE_HANDLES,
            len: LAST_NAMES.len(),
            tenths: 1,
        },
    ];
    (entries, classes)
}

/// Instantiate one of the six ad-hoc templates. `variant` only renames
/// the constructed element, which is enough to make the text — and so
/// the plan-cache key — distinct without changing the work.
fn adhoc_text(template: usize, customer: usize, variant: usize) -> String {
    let id = cid(customer);
    let hi = cid(customer + 4);
    let name = LAST_NAMES[customer % LAST_NAMES.len()];
    let tag = format!("R{variant}");
    match template {
        // point lookup
        0 => format!(
            "for $c in c:CUSTOMER() where $c/CID eq \"{id}\" \
             return <{tag}>{{$c/CID}}{{$c/LAST_NAME}}{{$c/SSN}}</{tag}>"
        ),
        // same-source join
        1 => format!(
            "for $c in c:CUSTOMER(), $o in c:ORDER() \
             where $o/CID eq $c/CID and $c/CID eq \"{id}\" \
             return <{tag}>{{$c/LAST_NAME}}{{$o/OID}}{{$o/AMOUNT}}</{tag}>"
        ),
        // cross-source profile
        2 => format!(
            "for $c in c:CUSTOMER() where $c/CID eq \"{id}\" \
             return <{tag}>{{$c/CID}}<CARDS>{{ \
               for $k in cc:CREDIT_CARD() where $k/CID eq $c/CID return $k/CCN \
             }}</CARDS></{tag}>"
        ),
        // group-by with aggregate
        3 => format!(
            "for $o in c:ORDER() where $o/CID ge \"{id}\" and $o/CID le \"{hi}\" \
             group $o as $g by $o/CID as $k \
             return <{tag}><K>{{$k}}</K><N>{{fn:count($g)}}</N></{tag}>"
        ),
        // order-by
        4 => format!(
            "for $c in c:CUSTOMER() where $c/LAST_NAME eq \"{name}\" and $c/CID ge \"{id}\" \
             order by $c/SINCE descending \
             return <{tag}>{{$c/CID}}</{tag}>"
        ),
        // call through the getProfileByID view
        _ => format!(
            "for $p in p:getProfileByID(\"{id}\") \
             return <{tag}>{{$p/CID}}{{$p/RATING}}</{tag}>"
        ),
    }
}

fn adhoc_cold() -> (Vec<Entry>, Vec<Class>) {
    let customers = Kind::AdhocCold.world().customers;
    let instantiate = |prefix: &str, u: usize, variant_base: usize| {
        let (template, rest) = (u % TEMPLATES, u / TEMPLATES);
        let (customer, variant) = (rest % customers, variant_base + rest / customers);
        query(
            format!("{prefix}/{template}/{customer}/{variant}"),
            adhoc_text(template, customer, variant),
        )
    };
    let mut entries: Vec<Entry> = (0..COLD_TEXTS).map(|u| instantiate("cold", u, 0)).collect();
    // hot texts reuse the templates under variants no cold text has;
    // a stride of 37 spreads them over templates and customers
    entries.extend((0..HOT_TEXTS).map(|u| instantiate("hot", u * 37, 100)));
    let classes = vec![
        Class {
            name: "cold",
            via: Via::InProcess,
            first: 0,
            len: COLD_TEXTS,
            tenths: 8,
        },
        Class {
            name: "hot",
            via: Via::InProcess,
            first: COLD_TEXTS,
            len: HOT_TEXTS,
            tenths: 2,
        },
    ];
    (entries, classes)
}

fn report_scan() -> (Vec<Entry>, Vec<Class>) {
    let reports = [
        (
            "group",
            // fn:substring is not pushable, so the group runs in the
            // middleware over every customer
            "for $c in c:CUSTOMER() \
             group $c as $g by fn:substring($c/CID, 5, 2) as $k \
             return <G><K>{$k}</K><N>{fn:count($g)}</N></G>",
        ),
        (
            "sort",
            "for $c in c:CUSTOMER() \
             order by fn:substring($c/SSN, 5, 7), $c/CID \
             return <S>{$c/CID}</S>",
        ),
        (
            "join",
            "for $c in c:CUSTOMER(), $k in cc:CREDIT_CARD() \
             where $k/CID eq $c/CID and $k/LIMIT_AMT gt 40000 \
             return <J>{$c/LAST_NAME}{$k/CCN}</J>",
        ),
        (
            "construct",
            "for $c in c:CUSTOMER() \
             return <PROFILE><CID>{fn:data($c/CID)}</CID>\
             <LAST_NAME>{fn:data($c/LAST_NAME)}</LAST_NAME>\
             <SINCE>{lib:int2date($c/SINCE)}</SINCE></PROFILE>",
        ),
    ];
    let entries = reports
        .iter()
        .map(|(name, body)| query(format!("report/{name}"), body.to_string()))
        .collect();
    // Shares are chosen from the classes' latencies (sort < join <
    // construct < group) so that the median sits inside `construct`
    // and the 95th percentile is the median of `group`; equal shares
    // would put the median on the boundary between two classes.
    let tenths = [1, 2, 2, 5];
    let classes = reports
        .iter()
        .zip(tenths)
        .enumerate()
        .map(|(i, ((name, _), tenths))| Class {
            name,
            via: Via::InProcessSerialized,
            first: i,
            len: 1,
            tenths,
        })
        .collect();
    (entries, classes)
}

fn federated_ppk() -> (Vec<Entry>, Vec<Class>) {
    let customers = Kind::FederatedPpk.world().customers;
    let mut entries: Vec<Entry> = (0..customers)
        .map(|i| call(format!("byid/{}", cid(i)), "getProfileByID", &[&cid(i)]))
        .collect();
    entries.extend(
        LAST_NAMES
            .iter()
            .map(|n| call(format!("byname/{n}"), "getProfileByLastName", &[n])),
    );
    let classes = vec![
        Class {
            name: "by_id",
            via: Via::InProcess,
            first: 0,
            len: customers,
            tenths: 9,
        },
        Class {
            name: "by_last_name",
            via: Via::InProcess,
            first: customers,
            len: LAST_NAMES.len(),
            tenths: 1,
        },
    ];
    (entries, classes)
}

/// The provider `profile_rw` reads, materializes and writes through.
pub const RW_PROVIDER: &str = "getFlat";

fn profile_rw() -> (Vec<Entry>, Vec<Class>) {
    let entries = vec![call("flat/initial".into(), RW_PROVIDER, &[])];
    let classes = vec![
        // Serialized inside the timed op, as a caller would consume the
        // 400 profiles: the bare materialized hit is ~6 us and moves
        // +-10% from run to run with heap layout alone, which no bound
        // could resolve. `matview.hit_read_us` still times the bare hit.
        Class {
            name: "read",
            via: Via::InProcessSerialized,
            first: 0,
            len: 1,
            tenths: 9,
        },
        Class {
            name: "write",
            via: Via::Write,
            first: 0,
            len: Kind::ProfileRw.world().customers,
            tenths: 1,
        },
    ];
    (entries, classes)
}

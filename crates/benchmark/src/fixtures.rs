//! The benchmark's own worlds: the paper's running example (Figure 3)
//! at a chosen size — CUSTOMER/ORDER on an Oracle-dialect `db1`,
//! CREDIT_CARD on a DB2-dialect `db2`, the credit-rating web service
//! and the `int2date`/`date2int` library pair.
//!
//! Adapted from `crates/bench/src/fixtures.rs` and owned here so that
//! later edits to `aldsp-bench`, `aldsp-qgen` or the `rand` shim cannot
//! move the benchmark's inputs. Data comes from [`DATA_SEED`] alone, so
//! the set of distinct requests (and their golden answers) is finite
//! and the same for every `--seed`.

use aldsp::adaptors::SimulatedWebService;
use aldsp::metadata::{WebServiceDescription, WebServiceOperation};
use aldsp::relational::{
    Catalog, Database, Dialect, LatencyModel, RelationalServer, SqlType, SqlValue, TableSchema,
};
use aldsp::security::{DenialAction, ElementResource, SecurityPolicy};
use aldsp::xdm::schema::ShapeBuilder;
use aldsp::xdm::types::{ItemType, Occurrence, SequenceType};
use aldsp::xdm::value::{AtomicType, AtomicValue, Decimal};
use aldsp::xdm::{Node, QName};
use aldsp::{AldspServer, ServerBuilder};
use std::sync::Arc;

/// Seed of every world's data. Never derived from `--seed`.
pub const DATA_SEED: u64 = 0x0A1D_5BEE;

/// splitmix64: the benchmark's only source of pseudo-randomness.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is far below what a
    /// workload mix can resolve.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Namespace prolog pasted in front of every ad-hoc query.
pub const PROLOG: &str = r#"declare namespace c = "urn:custDS";
declare namespace cc = "urn:ccDS";
declare namespace ws = "urn:ratingWS";
declare namespace lib = "urn:lib";
declare namespace r = "urn:ratingTypes";
declare namespace p = "urn:profileDS";
"#;

/// The data services every world deploys: Figure 3's integrated
/// profile with its two selections, and the flat single-table profile
/// that `profile_rw` materializes and writes through.
const PROFILE_MODULE: &str = r#"
    (::pragma function kind="read" ::)
    declare function p:getProfile() as element(PROFILE)* {
      for $c in c:CUSTOMER()
      return
        <PROFILE>
          <CID>{fn:data($c/CID)}</CID>
          <LAST_NAME>{fn:data($c/LAST_NAME)}</LAST_NAME>
          <ORDERS>{
            for $o in c:ORDER() where $o/CID eq $c/CID return $o/OID
          }</ORDERS>
          <CREDIT_CARDS>{
            for $k in cc:CREDIT_CARD() where $k/CID eq $c/CID return $k/CCN
          }</CREDIT_CARDS>
          <RATING>{
            fn:data(ws:getRating(
              <r:getRating>
                <r:lName>{fn:data($c/LAST_NAME)}</r:lName>
                <r:ssn>{fn:data($c/SSN)}</r:ssn>
              </r:getRating>)/r:getRatingResult)
          }</RATING>
        </PROFILE>
    };

    (::pragma function kind="read" ::)
    declare function p:getProfileByID($id as xs:string) as element(PROFILE)* {
      p:getProfile()[CID eq $id]
    };

    (::pragma function kind="read" ::)
    declare function p:getProfileByLastName($n as xs:string) as element(PROFILE)* {
      p:getProfile()[LAST_NAME eq $n]
    };

    (::pragma function kind="read" ::)
    declare function p:getFlat() as element(PROFILE)* {
      for $c in c:CUSTOMER()
      return
        <PROFILE>
          <CID>{fn:data($c/CID)}</CID>
          <LAST_NAME>{fn:data($c/LAST_NAME)}</LAST_NAME>
          <SINCE>{lib:int2date($c/SINCE)}</SINCE>
        </PROFILE>
    };
"#;

pub fn profile_fn(local: &str) -> QName {
    QName::new("urn:profileDS", local)
}

/// Customer `i`'s primary key.
pub fn cid(i: usize) -> String {
    format!("C{i:06}")
}

/// Customer `i` has `LAST_NAMES[i % 10]`, so a last name selects a
/// tenth of any world.
pub const LAST_NAMES: &[&str] = &[
    "Jones", "Smith", "Chen", "Garcia", "Kim", "Patel", "Muller", "Tanaka", "Okafor", "Silva",
];

/// What distinguishes one workload's world from another's.
#[derive(Debug, Clone, Copy)]
pub struct WorldSpec {
    pub customers: usize,
    pub orders_per_customer: usize,
    pub cards_per_customer: usize,
    /// Simulated LAN roundtrip on `db1` and `db2`; 0 = none.
    pub roundtrip_us: u64,
}

/// The simulated backends of one world. Several servers can share them
/// (`profile_rw` checks a materialized server against an
/// unmaterialized twin over the same sources).
pub struct Sources {
    pub db1: Arc<RelationalServer>,
    pub db2: Arc<RelationalServer>,
    cat1: Catalog,
    cat2: Catalog,
    rating: Arc<SimulatedWebService>,
    rating_description: WebServiceDescription,
}

/// Deterministic per-customer multiplicity around the average (some
/// customers have none — the outer-join cases).
fn multiplicity(customer: usize, avg: usize) -> usize {
    match (avg, customer % 4) {
        (0, _) => 0,
        (_, 0) => avg - 1,
        (_, 2) => avg + 1,
        (_, 3) if customer % 8 == 3 => 0,
        _ => avg,
    }
}

pub fn build_sources(spec: WorldSpec) -> Sources {
    let mut rng = Rng::new(DATA_SEED);
    let mut cat1 = Catalog::new();
    cat1.add(
        TableSchema::builder("CUSTOMER")
            .col("CID", SqlType::Varchar)
            .col("LAST_NAME", SqlType::Varchar)
            .col_null("FIRST_NAME", SqlType::Varchar)
            .col_null("SINCE", SqlType::Integer)
            .col_null("SSN", SqlType::Varchar)
            .pk(&["CID"])
            .build()
            .expect("static schema"),
    )
    .expect("fresh catalog");
    cat1.add(
        TableSchema::builder("ORDER")
            .col("OID", SqlType::Integer)
            .col("CID", SqlType::Varchar)
            .col("AMOUNT", SqlType::Decimal)
            .pk(&["OID"])
            .fk(&["CID"], "CUSTOMER", &["CID"])
            .build()
            .expect("static schema"),
    )
    .expect("fresh catalog");
    let mut db1 = Database::new();
    for t in cat1.tables() {
        db1.create_table(t.clone()).expect("fresh db");
    }
    let mut oid = 0i64;
    for i in 0..spec.customers {
        let cid = cid(i);
        db1.insert(
            "CUSTOMER",
            vec![
                SqlValue::str(&cid),
                SqlValue::str(LAST_NAMES[i % LAST_NAMES.len()]),
                if i % 7 == 0 {
                    SqlValue::Null
                } else {
                    SqlValue::str(&format!("First{i}"))
                },
                SqlValue::Int(rng.below(2_000_000_000) as i64),
                SqlValue::str(&format!("{:03}-{:02}-{:04}", i % 900, i % 90, i % 9000)),
            ],
        )
        .expect("generated row");
        for _ in 0..multiplicity(i, spec.orders_per_customer) {
            oid += 1;
            db1.insert(
                "ORDER",
                vec![
                    SqlValue::Int(oid),
                    SqlValue::str(&cid),
                    SqlValue::Dec(Decimal::from_int(1 + rng.below(499) as i64)),
                ],
            )
            .expect("generated row");
        }
    }
    let mut cat2 = Catalog::new();
    cat2.add(
        TableSchema::builder("CREDIT_CARD")
            .col("CCN", SqlType::Varchar)
            .col("CID", SqlType::Varchar)
            .col("LIMIT_AMT", SqlType::Integer)
            .pk(&["CCN"])
            .build()
            .expect("static schema"),
    )
    .expect("fresh catalog");
    let mut db2 = Database::new();
    for t in cat2.tables() {
        db2.create_table(t.clone()).expect("fresh db");
    }
    let mut ccn = 0u64;
    for i in 0..spec.customers {
        for _ in 0..multiplicity(i, spec.cards_per_customer) {
            ccn += 1;
            db2.insert(
                "CREDIT_CARD",
                vec![
                    SqlValue::str(&format!("4000-{ccn:08}")),
                    SqlValue::str(&cid(i)),
                    SqlValue::Int((1 + rng.below(49) as i64) * 1000),
                ],
            )
            .expect("generated row");
        }
    }
    let ws_ns = "urn:ratingTypes";
    let wsin = ShapeBuilder::element(QName::new(ws_ns, "getRating"))
        .required("lName", AtomicType::String)
        .required("ssn", AtomicType::String)
        .build();
    let wsout = ShapeBuilder::element(QName::new(ws_ns, "getRatingResponse"))
        .required("getRatingResult", AtomicType::Integer)
        .build();
    let rating = Arc::new(SimulatedWebService::new("ratingWS").operation(
        "getRating",
        wsin.clone(),
        wsout.clone(),
        Arc::new(|req| {
            let ssn = req
                .child_elements(&QName::new("urn:ratingTypes", "ssn"))
                .next()
                .map(|n| n.string_value())
                .unwrap_or_default();
            let score = 600 + (ssn.bytes().map(u64::from).sum::<u64>() % 250) as i64;
            Ok(Node::element(
                QName::new("urn:ratingTypes", "getRatingResponse"),
                vec![],
                vec![Node::simple_element(
                    QName::new("urn:ratingTypes", "getRatingResult"),
                    AtomicValue::Integer(score),
                )],
            ))
        }),
    ));
    let db1 = Arc::new(RelationalServer::new("db1", Dialect::Oracle, db1));
    let db2 = Arc::new(RelationalServer::new("db2", Dialect::Db2, db2));
    if spec.roundtrip_us > 0 {
        db1.set_latency(LatencyModel::lan(spec.roundtrip_us));
        db2.set_latency(LatencyModel::lan(spec.roundtrip_us));
    }
    Sources {
        db1,
        db2,
        cat1,
        cat2,
        rating,
        rating_description: WebServiceDescription {
            name: "ratingWS".into(),
            namespace: "urn:ratingWS".into(),
            operations: vec![WebServiceOperation {
                name: "getRating".into(),
                input: wsin,
                output: wsout,
            }],
        },
    }
}

/// The one element-level rule of the secured worlds: `SSN` directly
/// under a result element is masked for principals without `auditor`.
pub fn ssn_policy() -> SecurityPolicy {
    let mut policy = SecurityPolicy::new();
    policy.add_resource(ElementResource {
        path: vec![QName::local("SSN")],
        allowed_roles: vec!["auditor".into()],
        denial: DenialAction::Replace(AtomicValue::str("###-##-####")),
    });
    policy
}

/// Build a server over `sources`, register everything a world offers,
/// and deploy the profile data services. `tune` adds what one workload
/// needs on top (security, admission, materialization, reference
/// options).
pub fn build_server(
    sources: &Sources,
    tune: impl FnOnce(ServerBuilder) -> ServerBuilder,
) -> AldspServer {
    let (i2d, d2i) = aldsp::adaptors::native::int2date_pair();
    let opt_int = SequenceType::Seq(ItemType::Atomic(AtomicType::Integer), Occurrence::Optional);
    let opt_dt = SequenceType::Seq(ItemType::Atomic(AtomicType::DateTime), Occurrence::Optional);
    let builder = ServerBuilder::new()
        .relational_source(sources.db1.clone(), &sources.cat1, "urn:custDS")
        .expect("register db1")
        .relational_source(sources.db2.clone(), &sources.cat2, "urn:ccDS")
        .expect("register db2")
        .web_service(&sources.rating_description, sources.rating.clone())
        .expect("register ws")
        .native_function(
            QName::new("urn:lib", "int2date"),
            opt_int.clone(),
            opt_dt.clone(),
            i2d,
        )
        .expect("register int2date")
        .native_function(QName::new("urn:lib", "date2int"), opt_dt, opt_int, d2i)
        .expect("register date2int")
        .inverse(
            QName::new("urn:lib", "int2date"),
            QName::new("urn:lib", "date2int"),
        );
    let server = tune(builder).build();
    server
        .deploy(&format!("{PROLOG}{PROFILE_MODULE}"))
        .expect("profile module deploys");
    server
}

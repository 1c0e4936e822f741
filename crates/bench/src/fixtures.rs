//! Shared workload fixtures: a scalable version of the paper's running
//! example (Figure 3) — CUSTOMER/ORDER on an Oracle-dialect connection,
//! CREDIT_CARD on a DB2-dialect connection, the credit-rating web
//! service, and the `int2date`/`date2int` library pair (§4.4).
//!
//! Sizes are parameters so the experiments can sweep; data is generated
//! deterministically from a seed so runs are reproducible.

use aldsp::adaptors::SimulatedWebService;
use aldsp::metadata::{WebServiceDescription, WebServiceOperation};
use aldsp::relational::{
    Catalog, Database, Dialect, RelationalServer, SqlType, SqlValue, TableSchema,
};
use aldsp::security::Principal;
use aldsp::xdm::schema::ShapeBuilder;
use aldsp::xdm::types::{ItemType, Occurrence, SequenceType};
use aldsp::xdm::value::{AtomicType, AtomicValue, Decimal};
use aldsp::xdm::{Node, QName};
use aldsp::{
    AldspServer, ExecutionOptions, QueryRequest, QueryResponse, ServerBuilder, TraceLevel,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Workload size knobs.
#[derive(Debug, Clone, Copy)]
pub struct WorldSize {
    /// Number of customers.
    pub customers: usize,
    /// Average orders per customer.
    pub orders_per_customer: usize,
    /// Average credit cards per customer.
    pub cards_per_customer: usize,
}

/// The assembled world: the server plus handles used to inject latency
/// and read statistics.
pub struct World {
    /// The ALDSP server.
    pub server: AldspServer,
    /// The customer/order database (Oracle dialect, connection `db1`).
    pub db1: Arc<RelationalServer>,
    /// The credit-card database (DB2 dialect, connection `db2`).
    pub db2: Arc<RelationalServer>,
    /// The credit-rating web service.
    pub rating: Arc<SimulatedWebService>,
}

/// The standard query prolog binding the fixture namespaces.
pub const PROLOG: &str = r#"
    declare namespace c = "urn:custDS";
    declare namespace cc = "urn:ccDS";
    declare namespace ws = "urn:ratingWS";
    declare namespace lib = "urn:lib";
    declare namespace r = "urn:ratingTypes";
"#;

/// Deterministic last names.
const LAST_NAMES: &[&str] = &[
    "Jones", "Smith", "Chen", "Garcia", "Kim", "Patel", "Muller", "Tanaka", "Okafor", "Silva",
];

/// Build the world at the given size with the default PP-k settings.
pub fn build_world(size: WorldSize) -> World {
    build_world_opts(size, 20, aldsp::compiler::LocalJoinMethod::IndexNestedLoop)
}

/// The fixture world *without* the `int2date` inverse declaration — the
/// §4.4 ablation baseline (the predicate stays in the middleware).
pub fn build_world_no_inverse(size: WorldSize) -> World {
    build_world_full(
        size,
        20,
        aldsp::compiler::LocalJoinMethod::IndexNestedLoop,
        1,
        false,
        |b| b,
    )
}

/// Build the world with a hook to tune the [`ServerBuilder`] before
/// `build()` — admission limits, memory budgets, source caps — for the
/// workload-governor experiments.
pub fn build_world_tuned(
    size: WorldSize,
    tune: impl FnOnce(ServerBuilder) -> ServerBuilder,
) -> World {
    build_world_full(
        size,
        20,
        aldsp::compiler::LocalJoinMethod::IndexNestedLoop,
        1,
        true,
        tune,
    )
}

/// Build the world with explicit PP-k knobs (block size and local join
/// method, §4.2/§5.2) for the sweep and join-method experiments.
pub fn build_world_opts(
    size: WorldSize,
    ppk_block_size: usize,
    ppk_local_method: aldsp::compiler::LocalJoinMethod,
) -> World {
    build_world_full(size, ppk_block_size, ppk_local_method, 1, true, |b| b)
}

/// Build the world with an explicit PP-k prefetch depth (0 = fetch each
/// block on demand) for the pipeline-overlap experiments.
pub fn build_world_prefetch(
    size: WorldSize,
    ppk_block_size: usize,
    ppk_prefetch_depth: usize,
) -> World {
    build_world_full(
        size,
        ppk_block_size,
        aldsp::compiler::LocalJoinMethod::IndexNestedLoop,
        ppk_prefetch_depth,
        true,
        |b| b,
    )
}

fn build_world_full(
    size: WorldSize,
    ppk_block_size: usize,
    ppk_local_method: aldsp::compiler::LocalJoinMethod,
    ppk_prefetch_depth: usize,
    declare_inverse: bool,
    tune: impl FnOnce(ServerBuilder) -> ServerBuilder,
) -> World {
    let mut rng = StdRng::seed_from_u64(0x0A1D5);
    // --- db1: CUSTOMER + ORDER ------------------------------------------
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
    for i in 0..size.customers {
        let cid = format!("C{i:06}");
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
                SqlValue::Int(rng.gen_range(0..2_000_000_000)),
                SqlValue::str(&format!("{:03}-{:02}-{:04}", i % 900, i % 90, i % 9000)),
            ],
        )
        .expect("generated row");
        let n_orders = multiplicity(i, size.orders_per_customer);
        for _ in 0..n_orders {
            oid += 1;
            db1.insert(
                "ORDER",
                vec![
                    SqlValue::Int(oid),
                    SqlValue::str(&cid),
                    SqlValue::Dec(Decimal::from_int(rng.gen_range(1..500))),
                ],
            )
            .expect("generated row");
        }
    }
    // --- db2: CREDIT_CARD -------------------------------------------------
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
    for i in 0..size.customers {
        let cid = format!("C{i:06}");
        for _ in 0..multiplicity(i, size.cards_per_customer) {
            ccn += 1;
            db2.insert(
                "CREDIT_CARD",
                vec![
                    SqlValue::str(&format!("4000-{ccn:08}")),
                    SqlValue::str(&cid),
                    SqlValue::Int(rng.gen_range(1..50) * 1000),
                ],
            )
            .expect("generated row");
        }
    }
    // --- the rating web service ------------------------------------------
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
    // --- assemble -----------------------------------------------------------
    let db1 = Arc::new(RelationalServer::new("db1", Dialect::Oracle, db1));
    let db2 = Arc::new(RelationalServer::new("db2", Dialect::Db2, db2));
    let (i2d, d2i) = aldsp::adaptors::native::int2date_pair();
    let opt_int = SequenceType::Seq(ItemType::Atomic(AtomicType::Integer), Occurrence::Optional);
    let opt_dt = SequenceType::Seq(ItemType::Atomic(AtomicType::DateTime), Occurrence::Optional);
    let mut builder = ServerBuilder::new()
        .ppk_block_size(ppk_block_size)
        .ppk_local_method(ppk_local_method)
        .execution(ExecutionOptions::new().ppk_prefetch_depth(ppk_prefetch_depth))
        .relational_source(db1.clone(), &cat1, "urn:custDS")
        .expect("register db1")
        .relational_source(db2.clone(), &cat2, "urn:ccDS")
        .expect("register db2")
        .web_service(
            &WebServiceDescription {
                name: "ratingWS".into(),
                namespace: "urn:ratingWS".into(),
                operations: vec![WebServiceOperation {
                    name: "getRating".into(),
                    input: wsin,
                    output: wsout,
                }],
            },
            rating.clone(),
        )
        .expect("register ws")
        .native_function(
            QName::new("urn:lib", "int2date"),
            opt_int.clone(),
            opt_dt.clone(),
            i2d,
        )
        .expect("register int2date")
        .native_function(QName::new("urn:lib", "date2int"), opt_dt, opt_int, d2i)
        .expect("register date2int");
    if declare_inverse {
        builder = builder.inverse(
            QName::new("urn:lib", "int2date"),
            QName::new("urn:lib", "date2int"),
        );
    }
    let server = tune(builder).build();
    World {
        server,
        db1,
        db2,
        rating,
    }
}

/// Deterministic per-customer multiplicity around the average (some
/// customers have none — the outer-join cases).
fn multiplicity(customer: usize, avg: usize) -> usize {
    if avg == 0 {
        return 0;
    }
    match customer % 4 {
        0 => avg.saturating_sub(1),
        1 => avg,
        2 => avg + 1,
        _ => {
            if customer % 8 == 3 {
                0
            } else {
                avg
            }
        }
    }
}

/// Execute `source` as `user` (no bindings, no tracing) — the
/// experiments' one-liner for the common materialized case.
pub fn run(server: &AldspServer, user: &Principal, source: &str) -> QueryResponse {
    server
        .execute(QueryRequest::new(source).principal(user.clone()))
        .expect("query executes")
}

/// [`run`] with per-operator tracing enabled, for the tracing-overhead
/// experiments.
pub fn run_traced(server: &AldspServer, user: &Principal, source: &str) -> QueryResponse {
    server
        .execute(
            QueryRequest::new(source)
                .principal(user.clone())
                .trace(TraceLevel::Operators),
        )
        .expect("query executes")
}

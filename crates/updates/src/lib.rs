//! # aldsp-updates — update automation (§6)
//!
//! ALDSP reads data out through data services and puts changes back with
//! Service Data Objects: [`sdo`] provides the change-tracked
//! [`sdo::DataObject`] with its serialized change log;
//! [`lineage`] computes where each piece of a data-service result
//! originated (rule-driven over the optimized plan, using primary keys,
//! predicates and the result shape — and seeing through registered
//! inverse functions, §4.4); [`submit`] decomposes a change log into
//! per-source conditioned `UPDATE`s (optimistic concurrency in the WHERE
//! clause) and applies them atomically via two-phase commit across the
//! affected sources only.

#![forbid(unsafe_code)]

pub mod lineage;
pub mod sdo;
pub mod submit;

pub use lineage::{analyze, Lineage, LineageEntry};
pub use sdo::{rewrite_value, Change, ChangeLog, DataObject, Path};
pub use submit::{ConcurrencyPolicy, SourceDelta, SubmitError, SubmitProcessor, SubmitReport};

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use aldsp_adaptors::AdaptorRegistry;
    use aldsp_compiler::{Compiler, Options};
    use aldsp_metadata::introspect_relational;
    use aldsp_relational::{
        Catalog, Database, Dialect, RelationalServer, SqlType, SqlValue, TableSchema,
    };
    use aldsp_runtime::Runtime;
    use aldsp_xdm::item::Item;
    use aldsp_xdm::value::{AtomicValue as V, DateTime};
    use aldsp_xdm::QName;
    use std::sync::Arc;

    pub(crate) struct World {
        pub(crate) compiler: Compiler,
        pub(crate) runtime: Runtime,
        pub(crate) meta: Arc<aldsp_metadata::Registry>,
        pub(crate) adaptors: Arc<AdaptorRegistry>,
        pub(crate) db1: Arc<RelationalServer>,
        pub(crate) db2: Arc<RelationalServer>,
        pub(crate) inverses: aldsp_compiler::InverseRegistry,
    }

    pub(crate) fn world() -> World {
        let mut cat1 = Catalog::new();
        cat1.add(
            TableSchema::builder("CUSTOMER")
                .col("CID", SqlType::Varchar)
                .col("LAST_NAME", SqlType::Varchar)
                .col_null("SINCE", SqlType::Integer)
                .pk(&["CID"])
                .build()
                .unwrap(),
        )
        .unwrap();
        let mut db1 = Database::new();
        for t in cat1.tables() {
            db1.create_table(t.clone()).unwrap();
        }
        db1.insert(
            "CUSTOMER",
            vec![
                SqlValue::str("0815"),
                SqlValue::str("Jones"),
                SqlValue::Int(1000),
            ],
        )
        .unwrap();
        let mut cat2 = Catalog::new();
        cat2.add(
            TableSchema::builder("ADDRESS")
                .col("CID", SqlType::Varchar)
                .col("CITY", SqlType::Varchar)
                .pk(&["CID"])
                .build()
                .unwrap(),
        )
        .unwrap();
        let mut db2 = Database::new();
        for t in cat2.tables() {
            db2.create_table(t.clone()).unwrap();
        }
        db2.insert(
            "ADDRESS",
            vec![SqlValue::str("0815"), SqlValue::str("Seoul")],
        )
        .unwrap();
        let mut meta = aldsp_metadata::Registry::new();
        meta.register_service(&introspect_relational(&cat1, "db1", "urn:custDS").unwrap())
            .unwrap();
        meta.register_service(&introspect_relational(&cat2, "db2", "urn:addrDS").unwrap())
            .unwrap();
        let (i2d, d2i) = aldsp_adaptors::native::int2date_pair();
        for (name, from, to) in [
            (
                "int2date",
                aldsp_xdm::value::AtomicType::Integer,
                aldsp_xdm::value::AtomicType::DateTime,
            ),
            (
                "date2int",
                aldsp_xdm::value::AtomicType::DateTime,
                aldsp_xdm::value::AtomicType::Integer,
            ),
        ] {
            meta.register_function(aldsp_metadata::PhysicalFunction {
                name: QName::new("urn:lib", name),
                kind: aldsp_metadata::FunctionKind::Library,
                params: vec![aldsp_metadata::ParamDecl {
                    name: "x".into(),
                    ty: aldsp_xdm::types::SequenceType::Seq(
                        aldsp_xdm::types::ItemType::Atomic(from),
                        aldsp_xdm::types::Occurrence::Optional,
                    ),
                }],
                return_type: aldsp_xdm::types::SequenceType::Seq(
                    aldsp_xdm::types::ItemType::Atomic(to),
                    aldsp_xdm::types::Occurrence::Optional,
                ),
                source: aldsp_metadata::SourceBinding::Native {
                    id: name.to_string(),
                },
            })
            .unwrap();
        }
        let meta = Arc::new(meta);
        let db1 = Arc::new(RelationalServer::new("db1", Dialect::Oracle, db1));
        let db2 = Arc::new(RelationalServer::new("db2", Dialect::Db2, db2));
        let mut adaptors = AdaptorRegistry::new();
        adaptors.register_connection(db1.clone());
        adaptors.register_connection(db2.clone());
        adaptors.register_native(i2d);
        adaptors.register_native(d2i);
        let adaptors = Arc::new(adaptors);
        let opts = Options {
            dialects: adaptors.connection_dialects(),
            ..Default::default()
        };
        let mut compiler = Compiler::new(meta.clone(), opts);
        let mut inverses = aldsp_compiler::InverseRegistry::default();
        inverses.declare(
            QName::new("urn:lib", "int2date"),
            QName::new("urn:lib", "date2int"),
        );
        compiler.declare_inverse(
            QName::new("urn:lib", "int2date"),
            QName::new("urn:lib", "date2int"),
        );
        let runtime = Runtime::new(meta.clone(), adaptors.clone());
        World {
            compiler,
            runtime,
            meta,
            adaptors,
            db1,
            db2,
            inverses,
        }
    }

    const PROFILE_QUERY: &str = r#"
        declare namespace c = "urn:custDS";
        declare namespace a = "urn:addrDS";
        declare namespace lib = "urn:lib";
        for $c in c:CUSTOMER()
        return
          <PROFILE>
            <CID>{fn:data($c/CID)}</CID>
            <LAST_NAME>{fn:data($c/LAST_NAME)}</LAST_NAME>
            <SINCE>{lib:int2date($c/SINCE)}</SINCE>
            <CITY>{
              for $a in a:ADDRESS() where $a/CID eq $c/CID return fn:data($a/CITY)
            }</CITY>
          </PROFILE>"#;

    pub(crate) fn read_profile(w: &World) -> (DataObject, Lineage) {
        let q = w.compiler.compile_query(PROFILE_QUERY).unwrap();
        let lineage = analyze(&w.meta, &q).unwrap();
        let out = w.runtime.execute(&q, &[]).unwrap();
        let Item::Node(node) = &out[0] else {
            panic!("expected a node")
        };
        (DataObject::new(node.clone()), lineage)
    }

    #[test]
    fn lineage_maps_result_paths_to_sources() {
        let w = world();
        let q = w.compiler.compile_query(PROFILE_QUERY).unwrap();
        let lineage = analyze(&w.meta, &q).unwrap();
        let last = lineage
            .entry(&vec![(QName::local("LAST_NAME"), 0)])
            .expect("LAST_NAME mapped");
        assert_eq!(last.connection, "db1");
        assert_eq!(last.table, "CUSTOMER");
        assert_eq!(last.column, "LAST_NAME");
        assert!(last.inverse.is_none());
        // the transformed SINCE is mapped with its forward function
        let since = lineage
            .entry(&vec![(QName::local("SINCE"), 0)])
            .expect("SINCE mapped");
        assert_eq!(since.inverse.as_ref().unwrap().local_name(), "int2date");
        // the cross-source CITY is mapped to db2
        let city = lineage
            .entry(&vec![(QName::local("CITY"), 0)])
            .expect("CITY mapped");
        assert_eq!(city.connection, "db2");
        assert_eq!(city.table, "ADDRESS");
        // keys: CUSTOMER's CID surfaces at /CID
        let keys = &lineage.keys[&("db1".to_string(), "CUSTOMER".to_string())];
        assert_eq!(keys[0].0, "CID");
        assert_eq!(keys[0].1, vec![(QName::local("CID"), 0)]);
    }

    #[test]
    fn figure5_update_propagates_only_to_affected_source() {
        let w = world();
        let (mut sdo, lineage) = read_profile(&w);
        sdo.set("LAST_NAME", Some(V::str("Smith"))).unwrap();
        let proc = SubmitProcessor::new(
            &w.adaptors,
            &w.meta,
            &lineage,
            &w.inverses,
            ConcurrencyPolicy::UpdatedValues,
        );
        let db2_before = w.db2.stats().roundtrips;
        let report = proc.submit(&sdo).unwrap();
        assert_eq!(report.rows_affected, 1);
        assert_eq!(report.sources_touched, vec!["db1"]);
        // "the other sources involved … are unaffected and will not
        // participate in this update at all" (§6)
        assert_eq!(w.db2.stats().roundtrips, db2_before);
        // the generated UPDATE carries the optimistic condition
        let (conn, sql) = &report.statements[0];
        assert_eq!(conn, "db1");
        assert!(sql.contains("SET \"LAST_NAME\" = ?"), "{sql}");
        assert!(
            sql.contains("\"CID\" = ?") && sql.contains("\"LAST_NAME\" = ?"),
            "{sql}"
        );
        // the database changed
        assert_eq!(
            w.db1
                .with_db(|d| d.table("CUSTOMER").unwrap().rows()[0][1].clone()),
            SqlValue::str("Smith")
        );
    }

    #[test]
    fn optimistic_conflict_detected() {
        let w = world();
        let (mut sdo, lineage) = read_profile(&w);
        // someone else changes the row between read and submit
        w.db1
            .with_db_mut(|d| {
                d.execute_dml(
                    &aldsp_relational::Dml::Update(aldsp_relational::Update {
                        table: "CUSTOMER".into(),
                        alias: "t1".into(),
                        set: vec![(
                            "LAST_NAME".into(),
                            aldsp_relational::ScalarExpr::lit(SqlValue::str("Intruder")),
                        )],
                        where_: None,
                    }),
                    &[],
                )
            })
            .unwrap();
        sdo.set("LAST_NAME", Some(V::str("Smith"))).unwrap();
        let proc = SubmitProcessor::new(
            &w.adaptors,
            &w.meta,
            &lineage,
            &w.inverses,
            ConcurrencyPolicy::UpdatedValues,
        );
        let err = proc.submit(&sdo).unwrap_err();
        assert!(
            matches!(err, SubmitError::OptimisticConflict { .. }),
            "{err}"
        );
        // the intruder's value survives
        assert_eq!(
            w.db1
                .with_db(|d| d.table("CUSTOMER").unwrap().rows()[0][1].clone()),
            SqlValue::str("Intruder")
        );
        // with no verification, last writer wins
        let proc = SubmitProcessor::new(
            &w.adaptors,
            &w.meta,
            &lineage,
            &w.inverses,
            ConcurrencyPolicy::None,
        );
        proc.submit(&sdo).unwrap();
        assert_eq!(
            w.db1
                .with_db(|d| d.table("CUSTOMER").unwrap().rows()[0][1].clone()),
            SqlValue::str("Smith")
        );
    }

    /// Under `UpdatedValues`, a conflict on the later source (db2) is
    /// known in phase 1: no source commits and none keeps a pending
    /// transaction.
    #[test]
    fn conflict_on_a_later_source_commits_no_source() {
        let w = world();
        let (mut sdo, lineage) = read_profile(&w);
        sdo.set("LAST_NAME", Some(V::str("Smith"))).unwrap();
        sdo.set("CITY", Some(V::str("Busan"))).unwrap();
        w.db2
            .with_db_mut(|d| {
                d.execute_dml(
                    &aldsp_relational::Dml::Update(aldsp_relational::Update {
                        table: "ADDRESS".into(),
                        alias: "t1".into(),
                        set: vec![(
                            "CITY".into(),
                            aldsp_relational::ScalarExpr::lit(SqlValue::str("Incheon")),
                        )],
                        where_: None,
                    }),
                    &[],
                )
            })
            .unwrap();
        let proc = SubmitProcessor::new(
            &w.adaptors,
            &w.meta,
            &lineage,
            &w.inverses,
            ConcurrencyPolicy::UpdatedValues,
        );
        match proc.submit(&sdo).unwrap_err() {
            SubmitError::OptimisticConflict { connection, table } => {
                assert_eq!((connection.as_str(), table.as_str()), ("db2", "ADDRESS"))
            }
            other => panic!("{other}"),
        }
        assert_eq!(
            w.db1
                .with_db(|d| d.table("CUSTOMER").unwrap().rows()[0][1].clone()),
            SqlValue::str("Jones")
        );
        assert_eq!(w.db1.pending_transactions(), 0);
        assert_eq!(w.db2.pending_transactions(), 0);
    }

    #[test]
    fn inverse_function_applied_on_write() {
        // §4.4/§6: SINCE surfaces as xs:dateTime; writing it stores the
        // epoch-seconds integer via date2int
        let w = world();
        let (mut sdo, lineage) = read_profile(&w);
        assert_eq!(sdo.get("SINCE"), Some(V::DateTime(DateTime(1000))));
        sdo.set("SINCE", Some(V::DateTime(DateTime(5000)))).unwrap();
        let proc = SubmitProcessor::new(
            &w.adaptors,
            &w.meta,
            &lineage,
            &w.inverses,
            ConcurrencyPolicy::UpdatedValues,
        );
        proc.submit(&sdo).unwrap();
        assert_eq!(
            w.db1
                .with_db(|d| d.table("CUSTOMER").unwrap().rows()[0][2].clone()),
            SqlValue::Int(5000)
        );
    }

    #[test]
    fn multi_source_update_uses_two_phase_commit() {
        let w = world();
        let (mut sdo, lineage) = read_profile(&w);
        sdo.set("LAST_NAME", Some(V::str("Smith"))).unwrap();
        sdo.set("CITY", Some(V::str("Busan"))).unwrap();
        let proc = SubmitProcessor::new(
            &w.adaptors,
            &w.meta,
            &lineage,
            &w.inverses,
            ConcurrencyPolicy::UpdatedValues,
        );
        let report = proc.submit(&sdo).unwrap();
        assert_eq!(report.rows_affected, 2);
        assert_eq!(report.sources_touched.len(), 2);
        assert_eq!(
            w.db2
                .with_db(|d| d.table("ADDRESS").unwrap().rows()[0][1].clone()),
            SqlValue::str("Busan")
        );
    }

    #[test]
    fn prepare_failure_aborts_all_sources() {
        let w = world();
        let (mut sdo, lineage) = read_profile(&w);
        sdo.set("LAST_NAME", Some(V::str("Smith"))).unwrap();
        sdo.set("CITY", Some(V::str("Busan"))).unwrap();
        w.db2.fail_next_prepare();
        let proc = SubmitProcessor::new(
            &w.adaptors,
            &w.meta,
            &lineage,
            &w.inverses,
            ConcurrencyPolicy::UpdatedValues,
        );
        let err = proc.submit(&sdo).unwrap_err();
        assert!(matches!(err, SubmitError::PrepareFailed(_)), "{err}");
        // neither source changed
        assert_eq!(
            w.db1
                .with_db(|d| d.table("CUSTOMER").unwrap().rows()[0][1].clone()),
            SqlValue::str("Jones")
        );
        assert_eq!(
            w.db2
                .with_db(|d| d.table("ADDRESS").unwrap().rows()[0][1].clone()),
            SqlValue::str("Seoul")
        );
    }

    #[test]
    fn primary_keys_are_not_writable() {
        let w = world();
        let (mut sdo, lineage) = read_profile(&w);
        sdo.set("CID", Some(V::str("9999"))).unwrap();
        let proc = SubmitProcessor::new(
            &w.adaptors,
            &w.meta,
            &lineage,
            &w.inverses,
            ConcurrencyPolicy::UpdatedValues,
        );
        let err = proc.submit(&sdo).unwrap_err();
        assert!(matches!(err, SubmitError::NotWritable(_)), "{err}");
    }

    #[test]
    fn clean_object_is_a_noop_submit() {
        let w = world();
        let (sdo, lineage) = read_profile(&w);
        let proc = SubmitProcessor::new(
            &w.adaptors,
            &w.meta,
            &lineage,
            &w.inverses,
            ConcurrencyPolicy::UpdatedValues,
        );
        let report = proc.submit(&sdo).unwrap();
        assert_eq!(report.rows_affected, 0);
        assert!(report.sources_touched.is_empty());
    }
}

#[cfg(test)]
mod policy_tests {
    use super::tests::*;
    use super::*;
    use aldsp_relational::SqlValue;
    use aldsp_xdm::value::AtomicValue as V;

    #[test]
    fn all_values_read_policy_detects_unrelated_changes() {
        let w = world();
        let (mut sdo, lineage) = read_profile(&w);
        // an unrelated column changes behind our back
        w.db1
            .with_db_mut(|d| {
                d.execute_dml(
                    &aldsp_relational::Dml::Update(aldsp_relational::Update {
                        table: "CUSTOMER".into(),
                        alias: "t1".into(),
                        set: vec![(
                            "SINCE".into(),
                            aldsp_relational::ScalarExpr::lit(SqlValue::Int(999_999)),
                        )],
                        where_: None,
                    }),
                    &[],
                )
            })
            .expect("background write");
        sdo.set("LAST_NAME", Some(V::str("Smith")))
            .expect("writable");
        // UpdatedValues doesn't look at SINCE → succeeds
        let proc = SubmitProcessor::new(
            &w.adaptors,
            &w.meta,
            &lineage,
            &w.inverses,
            ConcurrencyPolicy::UpdatedValues,
        );
        proc.submit(&sdo)
            .expect("only the changed column is verified");
        // restore and repeat under AllValuesRead → conflict, because the
        // read snapshot no longer matches SINCE (it is lineage-mapped
        // through int2date… which is skipped; use CITY on db2 instead)
        let (mut sdo2, _) = read_profile(&w);
        w.db1
            .with_db_mut(|d| {
                d.execute_dml(
                    &aldsp_relational::Dml::Update(aldsp_relational::Update {
                        table: "CUSTOMER".into(),
                        alias: "t1".into(),
                        set: vec![(
                            "LAST_NAME".into(),
                            aldsp_relational::ScalarExpr::lit(SqlValue::str("Changed")),
                        )],
                        where_: None,
                    }),
                    &[],
                )
            })
            .expect("background write");
        // touch LAST_NAME (so CUSTOMER participates); AllValuesRead then
        // verifies every lineage-mapped CUSTOMER column against the read
        // snapshot and catches the intruder's write. Note: per §6,
        // unaffected sources are "not involved in the update at all", so
        // verification can only cover participating tables.
        sdo2.set("CITY", Some(V::str("Busan"))).expect("writable");
        sdo2.set("LAST_NAME", Some(V::str("Brown")))
            .expect("writable");
        let proc = SubmitProcessor::new(
            &w.adaptors,
            &w.meta,
            &lineage,
            &w.inverses,
            ConcurrencyPolicy::AllValuesRead,
        );
        let err = proc.submit(&sdo2).expect_err("snapshot no longer matches");
        assert!(
            matches!(
                err,
                SubmitError::OptimisticConflict { .. } | SubmitError::PrepareFailed(_)
            ),
            "{err}"
        );
    }

    #[test]
    fn designated_column_policy() {
        // §6: "requiring a designated subset of the data (e.g., a
        // timestamp element or attribute) to still be the same"
        let w = world();
        let (mut sdo, lineage) = read_profile(&w);
        sdo.set("LAST_NAME", Some(V::str("Smith")))
            .expect("writable");
        // designate CID (unchanged, still matches) → succeeds even if
        // LAST_NAME itself was changed concurrently
        w.db1
            .with_db_mut(|d| {
                d.execute_dml(
                    &aldsp_relational::Dml::Update(aldsp_relational::Update {
                        table: "CUSTOMER".into(),
                        alias: "t1".into(),
                        set: vec![(
                            "LAST_NAME".into(),
                            aldsp_relational::ScalarExpr::lit(SqlValue::str("Intruder")),
                        )],
                        where_: None,
                    }),
                    &[],
                )
            })
            .expect("background write");
        let proc = SubmitProcessor::new(
            &w.adaptors,
            &w.meta,
            &lineage,
            &w.inverses,
            ConcurrencyPolicy::Designated(vec!["CID".into()]),
        );
        let report = proc.submit(&sdo).expect("designated column still matches");
        assert_eq!(report.rows_affected, 1);
        assert_eq!(
            w.db1
                .with_db(|d| d.table("CUSTOMER").expect("t").rows()[0][1].clone()),
            SqlValue::str("Smith"),
            "last writer wins under the designated policy"
        );
    }
}

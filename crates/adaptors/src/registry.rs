//! The adaptor registry: runtime resolution of source bindings.
//!
//! Pragma metadata names a connection/service/registration (§3.2); this
//! registry binds those names to live adaptors and dispatches physical
//! function calls ([`AdaptorRegistry::call_physical`]) and generated SQL
//! ([`AdaptorRegistry::execute_sql`]). This is the seam between the
//! compiled plan and the outside world.

use crate::files::{CsvFileSource, XmlFileSource};
use crate::native::NativeFunction;
use crate::webservice::SimulatedWebService;
use crate::{AdaptorError, Result};
use aldsp_metadata::{Registry, SourceBinding};
use aldsp_relational::{
    Dialect, RelationalServer, ResultSet, ScalarExpr, Select, SourceError, SqlValue, TableRef,
};
use aldsp_workload::{GatePermit, QueryBudget, SourceGates};
use aldsp_xdm::item::{Item, Sequence};
use aldsp_xdm::types::{ContentType, ElementType};
use aldsp_xdm::{Node, QName};
use std::collections::HashMap;
use std::sync::Arc;

/// Live adaptors keyed by the names pragma metadata carries.
#[derive(Default)]
pub struct AdaptorRegistry {
    connections: HashMap<String, Arc<RelationalServer>>,
    services: HashMap<String, Arc<SimulatedWebService>>,
    natives: HashMap<String, NativeFunction>,
    xml_files: HashMap<String, Arc<XmlFileSource>>,
    csv_files: HashMap<String, Arc<CsvFileSource>>,
    /// Per-source concurrency caps (counting semaphores keyed by
    /// connection/service name). Disabled until a cap is configured.
    gates: SourceGates,
}

impl AdaptorRegistry {
    /// An empty registry.
    pub fn new() -> AdaptorRegistry {
        AdaptorRegistry::default()
    }

    /// Bind a relational connection name to a server.
    pub fn register_connection(&mut self, server: Arc<RelationalServer>) {
        self.connections.insert(server.name().to_string(), server);
    }

    /// Bind a web service.
    pub fn register_service(&mut self, service: Arc<SimulatedWebService>) {
        self.services.insert(service.name().to_string(), service);
    }

    /// Bind a native function.
    pub fn register_native(&mut self, f: NativeFunction) {
        self.natives.insert(f.id().to_string(), f);
    }

    /// Bind an XML file source (keyed by its registered path/name).
    pub fn register_xml_file(&mut self, f: Arc<XmlFileSource>) {
        self.xml_files.insert(f.name().to_string(), f);
    }

    /// Bind a CSV file source.
    pub fn register_csv_file(&mut self, f: Arc<CsvFileSource>) {
        self.csv_files.insert(f.name().to_string(), f);
    }

    /// Cap in-flight requests per source (0 disables gating). PP-k
    /// prefetch threads and async branches acquire the same permits as
    /// foreground roundtrips, so the cap holds across a whole query.
    pub fn set_source_cap(&self, cap: usize) {
        self.gates.set_cap(cap);
    }

    /// Acquire this source's gate permit, waiting no longer than the
    /// budget's deadline allows. `None` when gating is disabled.
    fn acquire_gate(
        &self,
        source: &str,
        budget: Option<&QueryBudget>,
    ) -> Result<Option<GatePermit>> {
        match self.gates.gate(source) {
            None => Ok(None),
            Some(gate) => gate
                .acquire(budget)
                .map(Some)
                .map_err(|e| AdaptorError::Invocation(format!("{source}: {e}"))),
        }
    }

    /// The server bound to a connection name.
    pub fn connection(&self, name: &str) -> Result<&Arc<RelationalServer>> {
        self.connections
            .get(name)
            .ok_or_else(|| AdaptorError::Unresolved(name.to_string()))
    }

    /// A bound web service.
    pub fn service(&self, name: &str) -> Result<&Arc<SimulatedWebService>> {
        self.services
            .get(name)
            .ok_or_else(|| AdaptorError::Unresolved(name.to_string()))
    }

    /// A bound native function by registration id.
    pub fn native(&self, id: &str) -> Result<&NativeFunction> {
        self.natives
            .get(id)
            .ok_or_else(|| AdaptorError::Unresolved(id.to_string()))
    }

    /// The SQL dialect of a connection (for compiler options).
    pub fn dialect_of(&self, name: &str) -> Option<Dialect> {
        self.connections.get(name).map(|s| s.dialect())
    }

    /// All registered connection names and dialects.
    pub fn connection_dialects(&self) -> HashMap<String, Dialect> {
        self.connections
            .iter()
            .map(|(n, s)| (n.clone(), s.dialect()))
            .collect()
    }

    /// Execute generated SQL on a named connection (one roundtrip on the
    /// simulated server). With a budget the call runs under workload
    /// governance: it acquires the source's gate permit (bounded by the
    /// budget's deadline) and charges simulated latency against the
    /// budget so cancellation interrupts the roundtrip.
    pub fn execute_sql(
        &self,
        connection: &str,
        select: &Select,
        params: &[SqlValue],
        budget: Option<&QueryBudget>,
    ) -> Result<ResultSet> {
        let server = self.connection(connection)?;
        let _permit = self.acquire_gate(connection, budget)?;
        server
            .execute_select_governed(select, params, budget)
            .map_err(|e| classify_relational_error(connection, e))
    }

    /// Dispatch a physical function call through the appropriate adaptor
    /// (the un-pushed access path: full-table reads, navigation calls
    /// executed in the middleware, service calls, natives, files); a
    /// budget governs it as in [`Self::execute_sql`].
    pub fn call_physical(
        &self,
        metadata: &Registry,
        name: &QName,
        args: &[Sequence],
        budget: Option<&QueryBudget>,
    ) -> Result<Sequence> {
        let f = metadata
            .function(name)
            .ok_or_else(|| AdaptorError::Unresolved(name.to_string()))?;
        match &f.source {
            SourceBinding::RelationalTable {
                connection,
                table,
                shape,
                ..
            } => {
                let select = full_table_select(table, shape);
                let rs = self.execute_sql(connection, &select, &[], budget)?;
                Ok(rows_to_elements(shape, &rs))
            }
            SourceBinding::RelationalNavigation {
                connection,
                to_table,
                key_pairs,
                shape,
                ..
            } => {
                let Some(Item::Node(row)) = args.first().and_then(|a| a.first()) else {
                    return Ok(vec![]); // navigating from nothing
                };
                let mut select = full_table_select(to_table, shape);
                let mut params = Vec::with_capacity(key_pairs.len());
                let mut pred: Option<ScalarExpr> = None;
                for (from_col, to_col) in key_pairs {
                    let value = row
                        .child_elements(&QName::local(from_col))
                        .next()
                        .and_then(|n| n.typed_value());
                    let Some(v) = value else {
                        return Ok(vec![]); // NULL key joins to nothing
                    };
                    let sql_v = SqlValue::from_xml(Some(&v), guess_sql_type(&v))
                        .map_err(AdaptorError::Invocation)?;
                    params.push(sql_v);
                    let term =
                        ScalarExpr::col("t1", to_col).eq(ScalarExpr::Param(params.len() - 1));
                    pred = Some(match pred {
                        Some(p) => p.and(term),
                        None => term,
                    });
                }
                select.where_ = pred;
                let rs = self.execute_sql(connection, &select, &params, budget)?;
                Ok(rows_to_elements(shape, &rs))
            }
            SourceBinding::WebService {
                service, operation, ..
            } => {
                let Some(Item::Node(request)) = args.first().and_then(|a| a.first()) else {
                    return Err(AdaptorError::Invocation(format!(
                        "{name}: web service call requires a request element"
                    )));
                };
                let _permit = self.acquire_gate(service, budget)?;
                let resp = self.service(service)?.call(operation, request)?;
                Ok(vec![Item::Node(resp)])
            }
            SourceBinding::Native { id } => self
                .natives
                .get(id)
                .ok_or_else(|| AdaptorError::Unresolved(id.clone()))?
                .call(args),
            SourceBinding::XmlFile { path, .. } => self
                .xml_files
                .get(path)
                .ok_or_else(|| AdaptorError::Unresolved(path.clone()))?
                .read(),
            SourceBinding::CsvFile { path, .. } => self
                .csv_files
                .get(path)
                .ok_or_else(|| AdaptorError::Unresolved(path.clone()))?
                .read(),
        }
    }
}

fn classify_relational_error(connection: &str, e: SourceError) -> AdaptorError {
    // Branch on the error *kind*, not its rendered message. A cancelled
    // roundtrip surfaces as Invocation here; the runtime replaces it with
    // the precise DeadlineExceeded error after re-checking the budget.
    if e.is_unavailable() {
        AdaptorError::Unavailable(format!("{connection}: {e}"))
    } else {
        AdaptorError::Invocation(format!("{connection}: {e}"))
    }
}

/// `SELECT every-column FROM table t1` for a full read-function scan.
pub fn full_table_select(table: &str, shape: &ElementType) -> Select {
    let mut select = Select::new(TableRef::table(table, "t1"));
    if let ContentType::Complex(c) = &shape.content {
        for (i, ch) in c.children.iter().enumerate() {
            if let Some(n) = &ch.elem.name {
                select = select.column(
                    ScalarExpr::col("t1", n.local_name()),
                    &format!("c{}", i + 1),
                );
            }
        }
    }
    select
}

/// Construct the typed row elements of a result set according to the
/// table shape — the adaptor's "translate the result into XML token
/// stream form" step (§5.3). NULL columns become missing elements.
pub fn rows_to_elements(shape: &ElementType, rs: &ResultSet) -> Sequence {
    let ContentType::Complex(content) = &shape.content else {
        return vec![];
    };
    let row_name = shape.name.clone().unwrap_or_else(|| QName::local("row"));
    rs.rows
        .iter()
        .map(|row| {
            let mut children = Vec::with_capacity(row.len());
            for (v, decl) in row.iter().zip(&content.children) {
                if let Some(x) = v.to_xml() {
                    let cname = decl.elem.name.clone().expect("columns are named");
                    children.push(Node::simple_element(cname, x));
                }
            }
            Item::Node(Node::element(row_name.clone(), vec![], children))
        })
        .collect()
}

fn guess_sql_type(v: &aldsp_xdm::value::AtomicValue) -> aldsp_relational::SqlType {
    aldsp_relational::SqlType::from_xml_type(v.type_of())
        .unwrap_or(aldsp_relational::SqlType::Varchar)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aldsp_metadata::introspect_relational;
    use aldsp_relational::{Catalog, Database, SqlType, TableSchema};

    fn setup() -> (AdaptorRegistry, Registry) {
        let mut cat = Catalog::new();
        cat.add(
            TableSchema::builder("CUSTOMER")
                .col("CID", SqlType::Varchar)
                .col("LAST_NAME", SqlType::Varchar)
                .col_null("SINCE", SqlType::Integer)
                .pk(&["CID"])
                .build()
                .unwrap(),
        )
        .unwrap();
        cat.add(
            TableSchema::builder("ORDER")
                .col("OID", SqlType::Integer)
                .col("CID", SqlType::Varchar)
                .pk(&["OID"])
                .fk(&["CID"], "CUSTOMER", &["CID"])
                .build()
                .unwrap(),
        )
        .unwrap();
        let mut db = Database::new();
        for t in cat.tables() {
            db.create_table(t.clone()).unwrap();
        }
        db.insert(
            "CUSTOMER",
            vec![SqlValue::str("C1"), SqlValue::str("Jones"), SqlValue::Null],
        )
        .unwrap();
        db.insert(
            "CUSTOMER",
            vec![
                SqlValue::str("C2"),
                SqlValue::str("Smith"),
                SqlValue::Int(7),
            ],
        )
        .unwrap();
        db.insert("ORDER", vec![SqlValue::Int(1), SqlValue::str("C1")])
            .unwrap();
        db.insert("ORDER", vec![SqlValue::Int(2), SqlValue::str("C1")])
            .unwrap();
        let server = Arc::new(RelationalServer::new("db1", Dialect::Oracle, db));
        let mut adaptors = AdaptorRegistry::new();
        adaptors.register_connection(server);
        let mut meta = Registry::new();
        meta.register_service(&introspect_relational(&cat, "db1", "urn:custDS").unwrap())
            .unwrap();
        (adaptors, meta)
    }

    #[test]
    fn table_read_function_yields_typed_rows() {
        let (adaptors, meta) = setup();
        let rows = adaptors
            .call_physical(&meta, &QName::new("urn:custDS", "CUSTOMER"), &[], None)
            .unwrap();
        assert_eq!(rows.len(), 2);
        let c1 = rows[0].as_node().unwrap();
        assert_eq!(c1.name().unwrap().local_name(), "CUSTOMER");
        // NULL SINCE → missing element
        assert!(c1.child_elements(&QName::local("SINCE")).next().is_none());
        let c2 = rows[1].as_node().unwrap();
        assert_eq!(
            c2.child_elements(&QName::local("SINCE"))
                .next()
                .unwrap()
                .typed_value(),
            Some(aldsp_xdm::value::AtomicValue::Integer(7))
        );
    }

    #[test]
    fn navigation_call_joins_by_key() {
        let (adaptors, meta) = setup();
        let customers = adaptors
            .call_physical(&meta, &QName::new("urn:custDS", "CUSTOMER"), &[], None)
            .unwrap();
        let orders = adaptors
            .call_physical(
                &meta,
                &QName::new("urn:custDS", "getORDER"),
                &[vec![customers[0].clone()]],
                None,
            )
            .unwrap();
        assert_eq!(orders.len(), 2);
        let none = adaptors
            .call_physical(
                &meta,
                &QName::new("urn:custDS", "getORDER"),
                &[vec![customers[1].clone()]],
                None,
            )
            .unwrap();
        assert!(none.is_empty());
        // empty argument navigates to nothing
        let empty = adaptors
            .call_physical(
                &meta,
                &QName::new("urn:custDS", "getORDER"),
                &[vec![]],
                None,
            )
            .unwrap();
        assert!(empty.is_empty());
    }

    #[test]
    fn sql_execution_and_unavailability() {
        let (adaptors, meta) = setup();
        let f = meta
            .function(&QName::new("urn:custDS", "CUSTOMER"))
            .unwrap();
        let SourceBinding::RelationalTable { shape, .. } = &f.source else {
            panic!()
        };
        let select = full_table_select("CUSTOMER", shape);
        let rs = adaptors.execute_sql("db1", &select, &[], None).unwrap();
        assert_eq!(rs.rows.len(), 2);
        adaptors.connection("db1").unwrap().set_available(false);
        assert!(matches!(
            adaptors.execute_sql("db1", &select, &[], None).unwrap_err(),
            AdaptorError::Unavailable(_)
        ));
        assert!(matches!(
            adaptors
                .execute_sql("nope", &select, &[], None)
                .unwrap_err(),
            AdaptorError::Unresolved(_)
        ));
    }

    #[test]
    fn unresolved_physical_function() {
        let (adaptors, meta) = setup();
        assert!(adaptors
            .call_physical(&meta, &QName::new("urn:x", "NOPE"), &[], None)
            .is_err());
    }
}

//! XML and delimited (CSV) file adaptors (§2.2, §5.3).
//!
//! Files are *non-queryable* sources: ALDSP can read their full content
//! but cannot delegate query processing to them. "For files, XML schemas
//! are required at file registration time, and are used to validate the
//! data for typed processing" — both adaptors validate against the
//! registered shape and produce typed elements. Content can come from a
//! path on disk or be supplied inline (for tests and examples).

use crate::{AdaptorError, Result};
use aldsp_xdm::item::{Item, Sequence};
use aldsp_xdm::schema::validate;
use aldsp_xdm::types::{ContentType, ElementType};
use aldsp_xdm::value::AtomicValue;
use aldsp_xdm::{xml, Node, QName};
use parking_lot::RwLock;

/// Where a file adaptor reads its bytes.
#[derive(Debug, Clone)]
pub enum FileContent {
    /// A filesystem path, read at invocation time.
    Path(std::path::PathBuf),
    /// Inline content (registered data, tests).
    Inline(String),
}

impl FileContent {
    fn read(&self) -> Result<String> {
        match self {
            FileContent::Path(p) => std::fs::read_to_string(p).map_err(|e| {
                AdaptorError::Unavailable(format!("cannot read {}: {e}", p.display()))
            }),
            FileContent::Inline(s) => Ok(s.clone()),
        }
    }
}

/// An XML file registered with a schema: reading yields the validated,
/// typed *children* of the document root when the root is a plain
/// container, or the root element itself when it matches the shape.
pub struct XmlFileSource {
    name: String,
    content: RwLock<FileContent>,
    shape: ElementType,
}

impl XmlFileSource {
    /// Register an XML file under `name` with its row/record shape.
    pub fn new(name: &str, content: FileContent, shape: ElementType) -> XmlFileSource {
        XmlFileSource {
            name: name.to_string(),
            content: RwLock::new(content),
            shape,
        }
    }

    /// The registration name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Read and validate, producing typed elements.
    pub fn read(&self) -> Result<Sequence> {
        let text = self.content.read().read()?;
        let doc = xml::parse(&text)
            .map_err(|e| AdaptorError::Invocation(format!("{}: {e}", self.name)))?;
        let root = doc
            .children()
            .first()
            .ok_or_else(|| AdaptorError::Invocation(format!("{}: empty document", self.name)))?
            .clone();
        // root matches the shape directly?
        if root.name() == self.shape.name.as_ref() {
            let typed = validate(&root, &self.shape)
                .map_err(|e| AdaptorError::Invocation(format!("{}: {e}", self.name)))?;
            return Ok(vec![Item::Node(typed)]);
        }
        // otherwise treat the root as a container of records
        let mut out = Vec::new();
        for child in root.all_child_elements() {
            let typed = validate(child, &self.shape)
                .map_err(|e| AdaptorError::Invocation(format!("{}: {e}", self.name)))?;
            out.push(Item::Node(typed));
        }
        Ok(out)
    }
}

/// A delimited (CSV) file with a declared record shape: each line maps
/// positionally onto the shape's simple-typed children; empty fields of
/// optional children become missing elements (the NULL convention).
pub struct CsvFileSource {
    name: String,
    content: RwLock<FileContent>,
    shape: ElementType,
    delimiter: char,
}

impl CsvFileSource {
    /// Register a CSV file under `name` with its record shape.
    pub fn new(name: &str, content: FileContent, shape: ElementType) -> CsvFileSource {
        CsvFileSource {
            name: name.to_string(),
            content: RwLock::new(content),
            shape,
            delimiter: ',',
        }
    }

    /// Use a different delimiter.
    pub fn with_delimiter(mut self, d: char) -> Self {
        self.delimiter = d;
        self
    }

    /// The registration name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Read and type each record.
    pub fn read(&self) -> Result<Sequence> {
        let text = self.content.read().read()?;
        let ContentType::Complex(content) = &self.shape.content else {
            return Err(AdaptorError::Invocation(format!(
                "{}: CSV shape must have complex content",
                self.name
            )));
        };
        let record_name = self
            .shape
            .name
            .clone()
            .unwrap_or_else(|| QName::local("record"));
        let mut out = Vec::new();
        for (lineno, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let fields: Vec<&str> = split_delimited(line, self.delimiter);
            if fields.len() != content.children.len() {
                return Err(AdaptorError::Invocation(format!(
                    "{} line {}: expected {} fields, found {}",
                    self.name,
                    lineno + 1,
                    content.children.len(),
                    fields.len()
                )));
            }
            let mut children = Vec::with_capacity(fields.len());
            for (field, decl) in fields.iter().zip(&content.children) {
                let cname = decl.elem.name.clone().expect("declared children are named");
                let ContentType::Simple(t) = decl.elem.content else {
                    return Err(AdaptorError::Invocation(format!(
                        "{}: CSV columns must be simple-typed",
                        self.name
                    )));
                };
                if field.is_empty() {
                    if !decl.occ.allows_empty() {
                        return Err(AdaptorError::Invocation(format!(
                            "{} line {}: required field {cname} is empty",
                            self.name,
                            lineno + 1
                        )));
                    }
                    continue; // NULL → missing element
                }
                let typed = AtomicValue::untyped(field).cast_to(t).map_err(|e| {
                    AdaptorError::Invocation(format!("{} line {}: {e}", self.name, lineno + 1))
                })?;
                children.push(Node::simple_element(cname, typed));
            }
            out.push(Item::Node(Node::element(
                record_name.clone(),
                vec![],
                children,
            )));
        }
        Ok(out)
    }
}

/// Split one CSV line, honoring double-quoted fields with `""` escapes.
fn split_delimited(line: &str, delim: char) -> Vec<&str> {
    // fast path: no quotes
    if !line.contains('"') {
        return line.split(delim).map(str::trim).collect();
    }
    let mut fields = Vec::new();
    let bytes = line.as_bytes();
    let mut start = 0;
    let mut in_quotes = false;
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'"' => in_quotes = !in_quotes,
            b if b == delim as u8 && !in_quotes => {
                fields.push(line[start..i].trim().trim_matches('"'));
                start = i + 1;
            }
            _ => {}
        }
        i += 1;
    }
    fields.push(line[start..].trim().trim_matches('"'));
    fields
}

#[cfg(test)]
mod tests {
    use super::*;
    use aldsp_xdm::schema::ShapeBuilder;
    use aldsp_xdm::value::AtomicType;

    fn complaint_shape() -> ElementType {
        ShapeBuilder::element(QName::local("COMPLAINT"))
            .required_local("ID", AtomicType::Integer)
            .required_local("CID", AtomicType::String)
            .optional_local("SEVERITY", AtomicType::Integer)
            .build()
    }

    #[test]
    fn xml_file_container_of_records() {
        let src = XmlFileSource::new(
            "complaints.xml",
            FileContent::Inline(
                "<COMPLAINTS>
                   <COMPLAINT><ID>1</ID><CID>C1</CID><SEVERITY>3</SEVERITY></COMPLAINT>
                   <COMPLAINT><ID>2</ID><CID>C2</CID></COMPLAINT>
                 </COMPLAINTS>"
                    .into(),
            ),
            complaint_shape(),
        );
        let items = src.read().unwrap();
        assert_eq!(items.len(), 2);
        let first = items[0].as_node().unwrap();
        assert_eq!(
            first
                .child_elements(&QName::local("ID"))
                .next()
                .unwrap()
                .typed_value(),
            Some(AtomicValue::Integer(1))
        );
    }

    #[test]
    fn xml_file_validation_errors_surface() {
        let src = XmlFileSource::new(
            "bad.xml",
            FileContent::Inline(
                "<COMPLAINTS><COMPLAINT><ID>x</ID><CID>C1</CID></COMPLAINT></COMPLAINTS>".into(),
            ),
            complaint_shape(),
        );
        assert!(matches!(
            src.read().unwrap_err(),
            AdaptorError::Invocation(_)
        ));
        let missing = XmlFileSource::new(
            "missing.xml",
            FileContent::Path("/nonexistent/file.xml".into()),
            complaint_shape(),
        );
        assert!(matches!(
            missing.read().unwrap_err(),
            AdaptorError::Unavailable(_)
        ));
    }

    #[test]
    fn csv_records_typed_with_null_convention() {
        let src = CsvFileSource::new(
            "complaints.csv",
            FileContent::Inline("1,C1,3\n2,C2,\n".into()),
            complaint_shape(),
        );
        let items = src.read().unwrap();
        assert_eq!(items.len(), 2);
        let second = items[1].as_node().unwrap();
        assert!(second
            .child_elements(&QName::local("SEVERITY"))
            .next()
            .is_none());
        assert_eq!(
            second
                .child_elements(&QName::local("ID"))
                .next()
                .unwrap()
                .typed_value(),
            Some(AtomicValue::Integer(2))
        );
    }

    #[test]
    fn csv_quoting_and_errors() {
        let shape = ShapeBuilder::element(QName::local("R"))
            .required_local("A", AtomicType::String)
            .required_local("B", AtomicType::String)
            .build();
        let src = CsvFileSource::new(
            "q.csv",
            FileContent::Inline("\"hello, world\",b\n".into()),
            shape.clone(),
        );
        let items = src.read().unwrap();
        assert_eq!(items[0].as_node().unwrap().string_value(), "hello, worldb");
        // wrong arity
        let bad = CsvFileSource::new(
            "bad.csv",
            FileContent::Inline("only-one\n".into()),
            shape.clone(),
        );
        assert!(bad.read().is_err());
        // required field empty
        let empty = CsvFileSource::new("e.csv", FileContent::Inline(",b\n".into()), shape);
        assert!(empty.read().is_err());
    }

    #[test]
    fn custom_delimiter() {
        let shape = ShapeBuilder::element(QName::local("R"))
            .required_local("A", AtomicType::Integer)
            .required_local("B", AtomicType::Integer)
            .build();
        let src = CsvFileSource::new("p.psv", FileContent::Inline("1|2".into()), shape)
            .with_delimiter('|');
        assert_eq!(src.read().unwrap().len(), 1);
    }
}

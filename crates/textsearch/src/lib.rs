//! # textsearch — keyword search over relational databases
//!
//! A from-scratch implementation of the *metadata approach* to keyword
//! search over RDBMSs (modeled on Bergamaschi et al., SIGMOD'11 — the
//! technique the Nebula paper plugs in as its black-box search component):
//!
//! 1. each input keyword is weighted against possible **mappings** — a
//!    table name, a column name, or a database value ([`mapping`]);
//! 2. consistent mapping choices are combined into **configurations**, each
//!    capturing one possible semantics of the query ([`config`]);
//! 3. every configuration is compiled into one or more conjunctive
//!    ("SQL") queries with a confidence weight ([`compile`]);
//! 4. the queries execute over the store's indexes, and answer tuples
//!    inherit their query's confidence ([`search`]).
//!
//! The crate also implements **multi-query shared execution**
//! ([`shared`]): when several keyword queries generated from the same
//! annotation are executed as a group, their compiled conjunctive queries
//! share predicate evaluations through a memo table — the optimization the
//! Nebula paper reports as a 40–50% speedup (Figure 13).
//!
//! ```
//! use relstore::{Database, TableSchema, DataType, Value};
//! use textsearch::{KeywordSearch, KeywordQuery};
//!
//! let mut db = Database::new();
//! db.create_table(TableSchema::builder("gene")
//!     .column("gid", DataType::Text)
//!     .column("name", DataType::Text)
//!     .primary_key("gid").build().unwrap()).unwrap();
//! db.insert("gene", vec![Value::text("JW0013"), Value::text("grpC")]).unwrap();
//!
//! let engine = KeywordSearch::new(Default::default());
//! let hits = engine.search(&KeywordQuery::new(["gene", "grpC"]), &db).unwrap();
//! assert_eq!(hits.len(), 1);
//! assert!(hits[0].confidence > 0.0);
//! ```

pub mod backend;
pub mod compile;
pub mod config;
pub mod error;
pub mod mapping;
pub mod naive;
pub mod search;
pub mod shared;
pub mod token;

pub use backend::SearchBackend;
pub use compile::{compile_configuration, CompiledQuery};
pub use config::{Configuration, ConfigurationGenerator};
pub use error::SearchError;
pub use mapping::{Mapping, MappingKind, SchemaVocabulary};
pub use naive::naive_search;
pub use search::{KeywordQuery, KeywordSearch, SearchHit, SearchOptions, SearchStats};
pub use shared::{ExecutionMode, SharedExecutor};
pub use token::{is_stopword, normalize, singularize};

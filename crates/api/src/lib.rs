#![deny(missing_docs)]
#![forbid(unsafe_code)]

//! # kdc_api — the resident, typed query surface of the kDC suite
//!
//! Every consumer of the kDC solver — the `kdc` CLI, the `kdc_service`
//! daemon, the benchmark binaries and embedding applications — used to wire
//! up the core entry points ([`kdc::Solver`],
//! [`kdc::decompose::solve_decomposed`], [`kdc::topr`], [`kdc::counting`])
//! separately, and the warm-solve state (cached degeneracy peeling,
//! per-`(k, rules)` incremental CTCP reducers, best-known witnesses,
//! proven-optimal memos) was trapped inside the daemon where nobody else
//! could reach it. This crate lifts all of that into one resident
//! [`Session`] with a typed request/response model:
//!
//! * [`Query`] — *what* to compute: `Solve`, `Enumerate`, `TopR`, `Count`;
//! * [`Budget`] — *how much* to spend: time/node limits, threads,
//!   cooperative cancellation;
//! * [`Options`] — *which algorithm*: a named preset or an explicit
//!   [`kdc::SolverConfig`];
//! * [`Outcome`] — the unified answer: witness(es), status, search
//!   statistics and cache-provenance counters;
//! * [`Observer`] / [`Event`] — a callback channel streaming
//!   incumbent-improved / retighten / restart / done events while the query
//!   runs.
//!
//! ## Embedding the solver
//!
//! ```
//! use kdc_api::{Budget, Options, Query, Session};
//! use kdc_graph::Graph;
//! use std::time::Duration;
//!
//! // Build (or parse — see Session::open) a graph and make it resident.
//! let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]);
//! let session = Session::new(g);
//!
//! // One-liner for the common case:
//! let outcome = session.solve(1);
//! assert_eq!(outcome.size(), 3);
//! assert!(outcome.is_optimal());
//!
//! // The full typed surface: query x budget x options.
//! let outcome = session
//!     .run(
//!         &Query::Solve { k: 1 },
//!         &Budget::default().with_time_limit(Duration::from_secs(10)),
//!         &Options::preset("kdc")?,
//!     )?;
//! assert_eq!(outcome.size(), 3);
//! // The second query hit the proven-optimal memo: no search ran.
//! assert!(outcome.cache.result_memo_hit);
//!
//! // Warm artifacts persist on the session: enumeration, top-r pools and
//! // exact counting all run against the same resident graph.
//! let pool = session.run(
//!     &Query::TopR { k: 1, r: 2, diversify: false },
//!     &Budget::default(),
//!     &Options::default(),
//! )?;
//! assert_eq!(pool.witnesses.len(), 2);
//! # Ok::<(), String>(())
//! ```
//!
//! ## Why a session (and not a function)?
//!
//! The paper's preprocessing (reduction rules RR5/RR6) and initial-solution
//! heuristics dominate the cost of easy queries; a resident session pays
//! them once and lets every later query start from the tightened state:
//! repeat solves answer from the memo, solves at new `k` or under new
//! presets resume the incremental CTCP reducer and are seeded with the best
//! known witness. The reducer cache and the proven-optimal result memo are
//! both bounded (LRU, defaults [`session::DEFAULT_CTCP_CAPACITY`] and
//! [`session::DEFAULT_MEMO_CAPACITY`]) so a long-lived session cannot
//! accumulate unbounded per-`(k, rules)` or per-`(k, preset)` state.
//!
//! The warm state is also *portable*: [`Session::export_state`] captures
//! the witnesses and memos as a [`SessionState`], and
//! [`Session::import_state`] rehydrates them into a fresh session after
//! revalidating every entry against its graph — the mechanism behind the
//! daemon's crash recovery (`kdc serve --state-dir`, see `kdc_store`).

pub mod batch;
pub mod query;
pub mod session;

pub use batch::{BatchOutcome, SubQuery};
pub use query::{Budget, CacheInfo, Event, Observer, Options, Outcome, Query};
pub use session::{CtcpKey, Session, SessionCounters, SessionState, SolveKey};

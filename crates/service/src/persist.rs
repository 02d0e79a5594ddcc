//! Crash-safe persistence: wires the `kdc_store` snapshot/journal store
//! into the daemon.
//!
//! Armed by `kdc serve --state-dir DIR` (see
//! [`crate::server::Server::with_state_dir`]), the daemon journals every
//! *newly proven* maximum solve — the outcome of a `SOLVE`, or of each
//! solve sub-query of an `MSOLVE`, that ran a real search and ended
//! [`kdc::Status::Optimal`] — through one call, `Persist::record_solve`,
//! made at the single point where a query job completes, on the handler
//! thread and before the reply is written. It periodically folds the
//! journal into a snapshot, and once more at shutdown. On the next
//! startup the store replays snapshot + journal, this module revalidates
//! each recovered graph against its source file's content hash, re-parses
//! it, and feeds the surviving witnesses and proven-optimal memos back
//! into the fresh [`kdc_api::Session`] via
//! [`kdc_api::Session::import_state`] — so a killed daemon restarts warm:
//! recovered queries answer `cached=true` without re-searching, and
//! recovered witnesses seed new searches.
//!
//! Durability is strictly best-effort from the daemon's point of view: a
//! failed append or compaction is logged to stderr (and counted by the
//! `kdc_store_*` metrics) but never fails the query that triggered it.
//! A graph whose source file moved or changed since the snapshot is
//! recovered *cold* — the stale state is dropped, never replayed into a
//! session it no longer describes.

use crate::cache::{GraphCache, GraphEntry};
use kdc::{SearchStats, Solution, Status};
use kdc_api::{Outcome, SessionState, SolveKey};
use kdc_graph::VertexId;
use kdc_store::{GraphState, MemoState, Record, Store};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The daemon's handle on the durable store plus recovery bookkeeping.
pub(crate) struct Persist {
    store: Store,
    /// Graphs successfully rehydrated (cache entry + session state) at
    /// startup; reported as `recovered_graphs=` in server-wide `STATS`.
    recovered_graphs: AtomicU64,
}

impl Persist {
    pub(crate) fn new(store: Store) -> Self {
        Persist {
            store,
            recovered_graphs: AtomicU64::new(0),
        }
    }

    pub(crate) fn recovered_graphs(&self) -> u64 {
        self.recovered_graphs.load(Ordering::Relaxed)
    }

    /// Rehydrates `recovered` into the cache: for each persisted graph,
    /// re-read the source file, check its content hash against the
    /// snapshot, re-parse, and import the persisted witnesses/memos into
    /// the new entry's session. Any mismatch (file gone, changed, or
    /// unparseable) falls back cold for that graph — the daemon still
    /// starts, it just re-searches.
    pub(crate) fn recover(&self, cache: &GraphCache, recovered: &[GraphState]) {
        for gs in recovered {
            let hash = match std::fs::read(&gs.source_path) {
                Ok(bytes) => kdc_store::content_hash(&bytes),
                Err(e) => {
                    eprintln!(
                        "kdc_service recovery: graph {:?}: cannot read {}: {e}; starting cold",
                        gs.name, gs.source_path
                    );
                    continue;
                }
            };
            if hash != gs.content_hash {
                eprintln!(
                    "kdc_service recovery: graph {:?}: {} changed since snapshot \
                     (hash {:#x} != {:#x}); starting cold",
                    gs.name, gs.source_path, hash, gs.content_hash
                );
                continue;
            }
            let entry = match cache.load(&gs.source_path, &gs.name) {
                Ok(entry) => entry,
                Err(e) => {
                    eprintln!(
                        "kdc_service recovery: graph {:?}: {e}; starting cold",
                        gs.name
                    );
                    continue;
                }
            };
            let state = import_graph_state(gs);
            let (witnesses, memos) = entry.session().import_state(&state);
            self.recovered_graphs.fetch_add(1, Ordering::Relaxed);
            eprintln!(
                "kdc_service recovery: graph {:?} rehydrated \
                 (witnesses={witnesses} memos={memos})",
                gs.name
            );
        }
    }

    /// Journals one newly proven solve outcome: the entry's `Graph` meta
    /// record (once per process), the winning witness, and the
    /// proven-optimal memo row under `key`. Compacts when the append
    /// cadence says so. Outcomes that prove nothing new — not optimal, or
    /// answered by the memo (journaled when first proven, possibly by an
    /// earlier process) — are skipped, and so are entries without file
    /// provenance: there is nothing to revalidate against on recovery.
    pub(crate) fn record_solve(
        &self,
        cache: &GraphCache,
        entry: &GraphEntry,
        key: &SolveKey,
        outcome: &Outcome,
    ) {
        let Some((source_path, content_hash)) = entry.source() else {
            return;
        };
        let Some(vertices) = outcome.best().filter(|vs| !vs.is_empty()) else {
            return;
        };
        if outcome.status != Status::Optimal || outcome.cache.result_memo_hit {
            return;
        }
        let mut due = false;
        if entry.claim_meta_journal() {
            due |= self.append(&Record::Graph {
                name: entry.name.clone(),
                source_path: source_path.to_string(),
                content_hash,
            });
        }
        let ids: Vec<u64> = vertices.iter().map(|&v| u64::from(v)).collect();
        due |= self.append(&Record::Witness {
            graph: entry.name.clone(),
            k: key.k as u64,
            vertices: ids.clone(),
        });
        due |= self.append(&Record::Memo {
            graph: entry.name.clone(),
            k: key.k as u64,
            preset: key.preset.clone(),
            vertices: ids,
            status: outcome.status.as_token().to_string(),
            stats: outcome.stats.encode_compact(),
        });
        if due {
            self.compact_now(cache);
        }
    }

    /// One best-effort journal append; returns whether compaction is due.
    fn append(&self, record: &Record) -> bool {
        match self.store.append(record) {
            Ok(due) => due,
            Err(e) => {
                eprintln!("kdc_service persistence: journal append failed: {e}");
                false
            }
        }
    }

    /// Folds the full current state of every file-backed cache entry into
    /// a fresh snapshot (best effort; called on cadence and at drain).
    pub(crate) fn compact_now(&self, cache: &GraphCache) {
        let mut states = Vec::new();
        for name in cache.names() {
            let Some(entry) = cache.get(&name) else {
                continue;
            };
            let Some((source_path, content_hash)) = entry.source() else {
                continue;
            };
            let state = entry.session().export_state();
            if state.witnesses.is_empty() && state.memos.is_empty() {
                continue;
            }
            states.push(export_graph_state(
                &entry.name,
                source_path,
                content_hash,
                &state,
            ));
        }
        if let Err(e) = self.store.compact(&states) {
            eprintln!("kdc_service persistence: compaction failed: {e}");
        }
    }
}

/// Converts a session's exported warm state into the store's on-disk
/// shape. The inverse of [`import_graph_state`] up to entries the
/// session itself would reject.
pub fn export_graph_state(
    name: &str,
    source_path: &str,
    content_hash: u64,
    state: &SessionState,
) -> GraphState {
    GraphState {
        name: name.to_string(),
        source_path: source_path.to_string(),
        content_hash,
        witnesses: state
            .witnesses
            .iter()
            .map(|(k, vs)| (*k as u64, vs.iter().map(|&v| u64::from(v)).collect()))
            .collect(),
        memos: state
            .memos
            .iter()
            .map(|(key, solution)| MemoState {
                k: key.k as u64,
                preset: key.preset.clone(),
                vertices: solution.vertices.iter().map(|&v| u64::from(v)).collect(),
                status: solution.status.as_token().to_string(),
                stats: solution.stats.encode_compact(),
            })
            .collect(),
    }
}

/// Converts a recovered on-disk graph state back into the session's
/// import shape. Tolerant by construction: rows with out-of-range vertex
/// ids or an undecodable status/stats field are dropped here (and the
/// session's own validation re-checks everything that survives against
/// the actual graph).
pub fn import_graph_state(gs: &GraphState) -> SessionState {
    let narrow = |ids: &[u64]| -> Option<Vec<VertexId>> {
        ids.iter()
            .map(|&v| VertexId::try_from(v).ok())
            .collect::<Option<Vec<VertexId>>>()
    };
    let witnesses = gs
        .witnesses
        .iter()
        .filter_map(|(k, ids)| Some((usize::try_from(*k).ok()?, narrow(ids)?)))
        .collect();
    let memos = gs
        .memos
        .iter()
        .filter_map(|m| {
            let key = SolveKey {
                k: usize::try_from(m.k).ok()?,
                preset: m.preset.clone(),
            };
            let solution = Solution {
                vertices: narrow(&m.vertices)?,
                status: Status::parse_token(&m.status).ok()?,
                stats: SearchStats::decode_compact(&m.stats).ok()?,
            };
            Some((key, solution))
        })
        .collect();
    SessionState { witnesses, memos }
}

/// Shared handle used by [`crate::server::Server`]: the daemon holds it in
/// a `OnceLock` so `--state-dir` can arm persistence after `bind`.
pub(crate) type PersistHandle = Arc<Persist>;

#[cfg(test)]
mod tests {
    use super::*;
    use kdc_api::Session;
    use kdc_graph::named;

    #[test]
    fn graph_state_roundtrips_through_the_store_shape() {
        let session = Session::new(named::figure2());
        let outcome = session.solve(2);
        assert!(outcome.is_optimal());
        let state = session.export_state();
        assert!(!state.witnesses.is_empty() && !state.memos.is_empty());

        let gs = export_graph_state("fig2", "/tmp/fig2.clq", 0xdead_beef, &state);
        let back = import_graph_state(&gs);
        assert_eq!(back.witnesses, state.witnesses);
        assert_eq!(back.memos.len(), state.memos.len());
        for ((key, sol), (key2, sol2)) in state.memos.iter().zip(back.memos.iter()) {
            assert_eq!(key, key2);
            assert_eq!(sol.vertices, sol2.vertices);
            assert_eq!(sol.status, sol2.status);
            assert_eq!(sol.stats.nodes, sol2.stats.nodes);
        }

        // And a fresh session accepts the round-tripped state wholesale.
        let fresh = Session::new(named::figure2());
        let (w, m) = fresh.import_state(&back);
        assert_eq!((w, m), (1, 1));
        let warm = fresh.solve(2);
        assert!(warm.cache.result_memo_hit, "recovered memo must answer");
        assert_eq!(warm.size(), outcome.size());
    }

    #[test]
    fn undecodable_rows_are_dropped_not_fatal() {
        let gs = GraphState {
            name: "g".to_string(),
            source_path: "/tmp/g.clq".to_string(),
            content_hash: 1,
            witnesses: vec![(2, vec![1, 2, u64::from(u32::MAX) + 1])],
            memos: vec![MemoState {
                k: 2,
                preset: "kdc".to_string(),
                vertices: vec![1, 2],
                status: "definitely-not-a-status".to_string(),
                stats: String::new(),
            }],
        };
        let state = import_graph_state(&gs);
        assert!(state.witnesses.is_empty(), "overflowing vertex id dropped");
        assert!(state.memos.is_empty(), "bad status token dropped");
    }
}

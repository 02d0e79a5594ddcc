//! Graph file formats: whitespace edge lists and DIMACS `.clq`.
//!
//! Both readers are forgiving about comments and blank lines and accept 0- or
//! 1-based vertex ids (DIMACS is 1-based by specification; edge lists are
//! auto-detected via an explicit flag).

use crate::graph::{Graph, VertexId};
use std::fmt;
use std::fs;
use std::io::Write as _;
use std::path::Path;
use std::str::FromStr;

/// Errors produced by the parsers.
#[derive(Debug)]
pub enum IoError {
    /// Underlying filesystem error.
    Io(std::io::Error),
    /// Malformed content with a line number and message.
    Parse {
        /// 1-based line of the offending record (0 when file-level).
        line: usize,
        /// Human-readable description of the problem.
        msg: String,
    },
}

impl fmt::Display for IoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "i/o error: {e}"),
            IoError::Parse { line, msg } => write!(f, "parse error at line {line}: {msg}"),
        }
    }
}

impl std::error::Error for IoError {}

impl From<std::io::Error> for IoError {
    fn from(e: std::io::Error) -> Self {
        IoError::Io(e)
    }
}

fn parse_token<T: FromStr>(tok: &str, line: usize) -> Result<T, IoError> {
    tok.parse().map_err(|_| IoError::Parse {
        line,
        msg: format!("invalid number {tok:?}"),
    })
}

/// Parses a whitespace-separated edge list. Lines starting with `#`, `%` or
/// `c` are comments. Vertex ids may be arbitrary non-negative integers; the
/// graph is sized by the maximum id (+1). If `one_based`, ids are shifted
/// down by one.
pub fn parse_edge_list(text: &str, one_based: bool) -> Result<Graph, IoError> {
    let mut edges: Vec<(VertexId, VertexId)> = Vec::new();
    let mut max_id: u64 = 0;
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with(['#', '%']) || line.starts_with("c ") {
            continue;
        }
        let mut it = line.split_whitespace();
        let (Some(a), Some(b)) = (it.next(), it.next()) else {
            return Err(IoError::Parse {
                line: lineno + 1,
                msg: "expected two vertex ids".into(),
            });
        };
        let mut u: u64 = parse_token(a, lineno + 1)?;
        let mut v: u64 = parse_token(b, lineno + 1)?;
        if one_based {
            if u == 0 || v == 0 {
                return Err(IoError::Parse {
                    line: lineno + 1,
                    msg: "vertex id 0 in a 1-based edge list".into(),
                });
            }
            u -= 1;
            v -= 1;
        }
        max_id = max_id.max(u).max(v);
        edges.push((u as VertexId, v as VertexId));
    }
    let n = if edges.is_empty() {
        0
    } else {
        (max_id + 1) as usize
    };
    Ok(Graph::from_edges(n, &edges))
}

/// Parses a DIMACS `.clq`/`.col` graph: `c` comment lines, one
/// `p edge <n> <m>` header, and `e <u> <v>` edge lines with 1-based ids.
pub fn parse_dimacs(text: &str) -> Result<Graph, IoError> {
    let mut n: Option<usize> = None;
    let mut edges: Vec<(VertexId, VertexId)> = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('c') {
            continue;
        }
        let mut it = line.split_whitespace();
        match it.next() {
            Some("p") => {
                let _fmt = it.next(); // "edge" / "col"
                let nv: usize = parse_token(
                    it.next().ok_or(IoError::Parse {
                        line: lineno + 1,
                        msg: "missing vertex count".into(),
                    })?,
                    lineno + 1,
                )?;
                n = Some(nv);
            }
            Some("e") => {
                let u: usize = parse_token(
                    it.next().ok_or(IoError::Parse {
                        line: lineno + 1,
                        msg: "missing endpoint".into(),
                    })?,
                    lineno + 1,
                )?;
                let v: usize = parse_token(
                    it.next().ok_or(IoError::Parse {
                        line: lineno + 1,
                        msg: "missing endpoint".into(),
                    })?,
                    lineno + 1,
                )?;
                if u == 0 || v == 0 {
                    return Err(IoError::Parse {
                        line: lineno + 1,
                        msg: "DIMACS ids are 1-based".into(),
                    });
                }
                edges.push(((u - 1) as VertexId, (v - 1) as VertexId));
            }
            Some(other) => {
                return Err(IoError::Parse {
                    line: lineno + 1,
                    msg: format!("unknown record {other:?}"),
                })
            }
            None => {}
        }
    }
    let n = n.ok_or(IoError::Parse {
        line: 0,
        msg: "missing `p edge` header".into(),
    })?;
    if let Some(&(u, v)) = edges
        .iter()
        .find(|&&(u, v)| u as usize >= n || v as usize >= n)
    {
        return Err(IoError::Parse {
            line: 0,
            msg: format!("edge ({}, {}) exceeds declared n = {n}", u + 1, v + 1),
        });
    }
    Ok(Graph::from_edges(n, &edges))
}

/// Parses a METIS graph file (the DIMACS10 distribution format): a header
/// `<n> <m> [fmt]` followed by one line per vertex listing its (1-based)
/// neighbours. Only unweighted graphs (`fmt` 0 or absent) are supported.
pub fn parse_metis(text: &str) -> Result<Graph, IoError> {
    // Comment lines ('%') are skipped, but *empty* lines after the header
    // are meaningful: they are the adjacency rows of isolated vertices.
    let mut lines = text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim_start().starts_with('%'));
    let (header_no, header) =
        lines
            .by_ref()
            .find(|(_, l)| !l.trim().is_empty())
            .ok_or(IoError::Parse {
                line: 0,
                msg: "empty METIS file".into(),
            })?;
    let mut it = header.split_whitespace();
    let n: usize = parse_token(
        it.next().ok_or(IoError::Parse {
            line: header_no + 1,
            msg: "missing vertex count".into(),
        })?,
        header_no + 1,
    )?;
    let declared_m: usize = parse_token(
        it.next().ok_or(IoError::Parse {
            line: header_no + 1,
            msg: "missing edge count".into(),
        })?,
        header_no + 1,
    )?;
    if let Some(fmt) = it.next() {
        if fmt != "0" && fmt != "00" && fmt != "000" {
            return Err(IoError::Parse {
                line: header_no + 1,
                msg: format!("unsupported METIS fmt {fmt:?} (weights not supported)"),
            });
        }
    }
    let mut adj: Vec<Vec<VertexId>> = vec![Vec::new(); n];
    let mut row = 0usize;
    for (lineno, line) in lines {
        if row >= n {
            if line.trim().is_empty() {
                continue; // trailing blank lines are tolerated
            }
            return Err(IoError::Parse {
                line: lineno + 1,
                msg: "more adjacency rows than declared vertices".into(),
            });
        }
        for tok in line.split_whitespace() {
            let v: usize = parse_token(tok, lineno + 1)?;
            if v == 0 || v > n {
                return Err(IoError::Parse {
                    line: lineno + 1,
                    msg: format!("neighbour id {v} out of range 1..={n}"),
                });
            }
            adj[row].push((v - 1) as VertexId);
        }
        row += 1;
    }
    if row != n {
        return Err(IoError::Parse {
            line: 0,
            msg: format!("expected {n} adjacency rows, found {row}"),
        });
    }
    // Symmetrise defensively (well-formed files list both directions).
    let mut edges: Vec<(VertexId, VertexId)> = Vec::new();
    for (u, list) in adj.iter().enumerate() {
        for &v in list {
            edges.push((u as VertexId, v));
        }
    }
    let g = Graph::from_edges(n, &edges);
    if g.m() != declared_m {
        return Err(IoError::Parse {
            line: header_no + 1,
            msg: format!("header declares {declared_m} edges, file has {}", g.m()),
        });
    }
    Ok(g)
}

/// Serialises a graph in METIS format.
pub fn write_metis(g: &Graph, path: &Path) -> Result<(), IoError> {
    let mut f = fs::File::create(path)?;
    writeln!(f, "{} {}", g.n(), g.m())?;
    for v in g.vertices() {
        let row: Vec<String> = g.neighbors(v).iter().map(|w| (w + 1).to_string()).collect();
        writeln!(f, "{}", row.join(" "))?;
    }
    Ok(())
}

/// Reads a graph file, dispatching on extension: `.clq`/`.col`/`.dimacs` →
/// DIMACS, `.graph`/`.metis` → METIS, everything else → 0-based edge list.
pub fn read_graph(path: &Path) -> Result<Graph, IoError> {
    let text = fs::read_to_string(path)?;
    match path.extension().and_then(|e| e.to_str()) {
        Some("clq") | Some("col") | Some("dimacs") => parse_dimacs(&text),
        Some("graph") | Some("metis") => parse_metis(&text),
        _ => parse_edge_list(&text, false),
    }
}

/// Serialises a graph as a 0-based edge list with a `#` header.
pub fn write_edge_list(g: &Graph, path: &Path) -> Result<(), IoError> {
    let mut f = fs::File::create(path)?;
    writeln!(f, "# n = {} m = {}", g.n(), g.m())?;
    for (u, v) in g.edges() {
        writeln!(f, "{u} {v}")?;
    }
    Ok(())
}

/// Serialises a graph in DIMACS `.clq` format (1-based).
pub fn write_dimacs(g: &Graph, path: &Path) -> Result<(), IoError> {
    let mut f = fs::File::create(path)?;
    writeln!(f, "c generated by kdc-suite")?;
    writeln!(f, "p edge {} {}", g.n(), g.m())?;
    for (u, v) in g.edges() {
        writeln!(f, "e {} {}", u + 1, v + 1)?;
    }
    Ok(())
}

/// A freshly created temp directory named after `tag`, the process id and
/// a per-process call counter, so tests that write fixture files never
/// share a path with a concurrently running test (in this process or
/// another). Test support only; panics if the directory cannot be made.
#[doc(hidden)]
pub fn fresh_temp_dir(tag: &str) -> std::path::PathBuf {
    static CALLS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let call = CALLS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("kdc_{tag}_{}_{call}", std::process::id()));
    fs::create_dir_all(&dir)
        .unwrap_or_else(|e| panic!("cannot create temp dir {}: {e}", dir.display()));
    dir
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_list_roundtrip() {
        let text = "# comment\n0 1\n1 2\n\n% another comment\n2 3\n";
        let g = parse_edge_list(text, false).unwrap();
        assert_eq!(g.n(), 4);
        assert_eq!(g.m(), 3);
    }

    #[test]
    fn edge_list_one_based() {
        let g = parse_edge_list("1 2\n2 3\n", true).unwrap();
        assert_eq!(g.n(), 3);
        assert!(g.has_edge(0, 1) && g.has_edge(1, 2));
    }

    #[test]
    fn edge_list_rejects_zero_in_one_based() {
        assert!(parse_edge_list("0 1\n", true).is_err());
    }

    #[test]
    fn edge_list_rejects_garbage() {
        let err = parse_edge_list("0 x\n", false).unwrap_err();
        assert!(matches!(err, IoError::Parse { line: 1, .. }));
    }

    #[test]
    fn dimacs_roundtrip() {
        let text = "c sample\np edge 4 3\ne 1 2\ne 2 3\ne 3 4\n";
        let g = parse_dimacs(text).unwrap();
        assert_eq!(g.n(), 4);
        assert_eq!(g.m(), 3);
        assert!(g.has_edge(0, 1));
    }

    #[test]
    fn dimacs_requires_header() {
        assert!(parse_dimacs("e 1 2\n").is_err());
    }

    #[test]
    fn dimacs_bounds_check() {
        assert!(parse_dimacs("p edge 2 1\ne 1 5\n").is_err());
    }

    #[test]
    fn metis_parse_basic() {
        // A triangle plus a pendant vertex.
        let text = "% comment\n4 4\n2 3\n1 3 4\n1 2\n2\n";
        let g = parse_metis(text).unwrap();
        assert_eq!(g.n(), 4);
        assert_eq!(g.m(), 4);
        assert!(g.has_edge(0, 1) && g.has_edge(1, 3) && !g.has_edge(0, 3));
    }

    #[test]
    fn metis_rejects_malformed() {
        assert!(parse_metis("").is_err(), "empty file");
        assert!(parse_metis("2 1\n2\n1\n1\n").is_err(), "extra rows");
        assert!(parse_metis("2 1\n2\n").is_err(), "missing rows");
        assert!(
            parse_metis("2 1\n3\n1\n").is_err(),
            "neighbour out of range"
        );
        assert!(parse_metis("2 1\n0\n1\n").is_err(), "neighbour id 0");
        assert!(parse_metis("2 5\n2\n1\n").is_err(), "edge count mismatch");
        assert!(parse_metis("2 1 011\n2\n1\n").is_err(), "weighted fmt");
    }

    #[test]
    fn metis_isolated_vertices_are_empty_rows() {
        // Vertices 2 and 4 are isolated: their rows are empty lines.
        let g = parse_metis("4 1\n3\n\n1\n\n").unwrap();
        assert_eq!(g.n(), 4);
        assert_eq!(g.m(), 1);
        assert!(g.has_edge(0, 2));
        assert_eq!(g.degree(1), 0);
        assert_eq!(g.degree(3), 0);
        // Trailing blank lines are tolerated.
        assert!(parse_metis("2 1\n2\n1\n\n\n").is_ok());
    }

    #[test]
    fn metis_file_roundtrip() {
        let dir = fresh_temp_dir("io_tests");
        let g = crate::gen::gnp(30, 0.2, &mut crate::gen::seeded_rng(5));
        let p = dir.join("g.graph");
        write_metis(&g, &p).unwrap();
        assert_eq!(read_graph(&p).unwrap(), g);
    }

    #[test]
    fn file_roundtrips() {
        let dir = fresh_temp_dir("io_tests");
        let g = crate::gen::complete(5);

        let p1 = dir.join("k5.txt");
        write_edge_list(&g, &p1).unwrap();
        assert_eq!(read_graph(&p1).unwrap(), g);

        let p2 = dir.join("k5.clq");
        write_dimacs(&g, &p2).unwrap();
        assert_eq!(read_graph(&p2).unwrap(), g);
    }
}

//! A small line-oriented text format for DFGs.
//!
//! ```text
//! dfg dotprod
//! node 0 load
//! node 1 load
//! node 2 mul
//! edge 0 2
//! edge 1 2 0
//! edge 2 2 1   # distance-1 back edge
//! ```
//!
//! Lines: `dfg <name>`, `node <id> <opcode>`, `edge <src> <dst> [dist]`.
//! `#` starts a comment; node ids must be dense and in order; `dist` is
//! at most [`MAX_DISTANCE`]; a graph has at most [`MAX_NODES`] nodes and
//! [`MAX_EDGES`] edges.

use crate::{Dfg, DfgBuilder, DfgError, NodeId, Opcode};
use std::fmt;

/// Largest loop-carried distance [`parse`] accepts. Every suite kernel
/// uses distance 1. A mapper routes a distance-`d` edge over up to
/// `d · II` cycles, and the router sizes its search by that horizon, so
/// an unbounded distance from untrusted text would be an unbounded
/// allocation.
pub const MAX_DISTANCE: u32 = 64;

/// Largest node count [`parse`] accepts, several times the largest suite
/// kernel (huf_u, 592 nodes). A mapper's per-problem tables (candidate
/// sets, schedule, placements) grow with it, so untrusted text must not
/// set it without bound.
pub const MAX_NODES: usize = 4096;

/// Largest edge count [`parse`] accepts, several times the largest
/// suite kernel (huf_u, 720 edges); bounded for the same reason as
/// [`MAX_NODES`].
pub const MAX_EDGES: usize = 8192;

/// Errors from [`parse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseDfgError {
    /// A line could not be interpreted.
    Syntax { line: usize, message: String },
    /// The graph itself was invalid.
    Graph(DfgError),
}

impl fmt::Display for ParseDfgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseDfgError::Syntax { line, message } => {
                write!(f, "line {line}: {message}")
            }
            ParseDfgError::Graph(e) => write!(f, "invalid graph: {e}"),
        }
    }
}

impl std::error::Error for ParseDfgError {}

impl From<DfgError> for ParseDfgError {
    fn from(e: DfgError) -> Self {
        ParseDfgError::Graph(e)
    }
}

/// Serialize a DFG to the text format.
#[must_use]
pub fn emit(dfg: &Dfg) -> String {
    let mut out = String::new();
    out.push_str(&format!("dfg {}\n", dfg.name()));
    for u in dfg.node_ids() {
        out.push_str(&format!("node {} {}\n", u.0, dfg.node(u).opcode));
    }
    for e in dfg.edges() {
        if e.dist == 0 {
            out.push_str(&format!("edge {} {}\n", e.src.0, e.dst.0));
        } else {
            out.push_str(&format!("edge {} {} {}\n", e.src.0, e.dst.0, e.dist));
        }
    }
    out
}

/// Parse the text format back into a DFG.
///
/// # Errors
/// Returns [`ParseDfgError::Syntax`] for malformed lines (a distance
/// above [`MAX_DISTANCE`], or a node or edge beyond [`MAX_NODES`] or
/// [`MAX_EDGES`], included) and [`ParseDfgError::Graph`] if the
/// edges violate DFG invariants.
pub fn parse(text: &str) -> Result<Dfg, ParseDfgError> {
    let mut name = String::from("unnamed");
    let mut pending_nodes: Vec<(usize, Opcode)> = Vec::new();
    let mut pending_edges: Vec<(u32, u32, u32, usize)> = Vec::new();

    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut parts = line.split_whitespace();
        let keyword = parts.next().expect("non-empty line");
        match keyword {
            "dfg" => {
                name = parts
                    .next()
                    .ok_or_else(|| syntax(lineno, "missing name"))?
                    .to_owned();
            }
            "node" => {
                let id: usize = parse_num(parts.next(), lineno, "node id")?;
                let op: Opcode = parts
                    .next()
                    .ok_or_else(|| syntax(lineno, "missing opcode"))?
                    .parse()
                    .map_err(|e| syntax(lineno, &format!("{e}")))?;
                if id != pending_nodes.len() {
                    return Err(syntax(lineno, "node ids must be dense and ordered"));
                }
                if id >= MAX_NODES {
                    return Err(syntax(
                        lineno,
                        &format!("node count exceeds the limit of {MAX_NODES}"),
                    ));
                }
                pending_nodes.push((id, op));
            }
            "edge" => {
                let src: u32 = parse_num(parts.next(), lineno, "edge source")?;
                let dst: u32 = parse_num(parts.next(), lineno, "edge target")?;
                let dist: u32 = match parts.next() {
                    Some(tok) => tok
                        .parse()
                        .map_err(|_| syntax(lineno, "distance must be an integer"))?,
                    None => 0,
                };
                if dist > MAX_DISTANCE {
                    return Err(syntax(
                        lineno,
                        &format!("distance {dist} exceeds the limit of {MAX_DISTANCE}"),
                    ));
                }
                if pending_edges.len() >= MAX_EDGES {
                    return Err(syntax(
                        lineno,
                        &format!("edge count exceeds the limit of {MAX_EDGES}"),
                    ));
                }
                pending_edges.push((src, dst, dist, lineno));
            }
            other => return Err(syntax(lineno, &format!("unknown keyword `{other}`"))),
        }
        if parts.next().is_some() && keyword != "dfg" {
            return Err(syntax(lineno, "trailing tokens"));
        }
    }

    let mut b = DfgBuilder::new(name);
    for (_, op) in &pending_nodes {
        b.node(*op);
    }
    for (src, dst, dist, _lineno) in pending_edges {
        if dist == 0 {
            b.edge(NodeId(src), NodeId(dst))?;
        } else {
            b.back_edge(NodeId(src), NodeId(dst), dist)?;
        }
    }
    Ok(b.finish()?)
}

fn parse_num<T: std::str::FromStr>(
    tok: Option<&str>,
    line: usize,
    what: &str,
) -> Result<T, ParseDfgError> {
    tok.ok_or_else(|| syntax(line, &format!("missing {what}")))?
        .parse()
        .map_err(|_| syntax(line, &format!("{what} must be an integer")))
}

fn syntax(line: usize, message: &str) -> ParseDfgError {
    ParseDfgError::Syntax { line, message: message.to_owned() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite;

    #[test]
    fn round_trips_suite_kernels() {
        for g in suite::small() {
            let text = emit(&g);
            let back = parse(&text).unwrap();
            assert_eq!(back, g, "{}", g.name());
        }
    }

    #[test]
    fn parses_comments_and_blank_lines() {
        let text = "\n# header\ndfg t\nnode 0 add # trailing\n\nnode 1 store\nedge 0 1\n";
        let g = parse(text).unwrap();
        assert_eq!(g.name(), "t");
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn back_edge_distance_parsed() {
        let g = parse("dfg t\nnode 0 add\nedge 0 0 2\n").unwrap();
        let e = g.edges().next().unwrap();
        assert_eq!(e.dist, 2);
    }

    #[test]
    fn rejects_distances_above_the_limit() {
        let at_limit = format!("dfg t\nnode 0 add\nedge 0 0 {MAX_DISTANCE}\n");
        assert_eq!(parse(&at_limit).unwrap().max_dist(), MAX_DISTANCE);
        for dist in [u64::from(MAX_DISTANCE) + 1, 100_000_000] {
            let err = parse(&format!("dfg t\nnode 0 add\n\nedge 0 0 {dist}\n")).unwrap_err();
            assert!(matches!(err, ParseDfgError::Syntax { line: 4, .. }), "{err:?}");
            assert!(err.to_string().contains("exceeds the limit"), "{err}");
        }
        assert!(suite::all().iter().all(|g| g.max_dist() <= MAX_DISTANCE));
    }

    #[test]
    fn rejects_node_counts_above_the_limit() {
        let nodes = |n: usize| -> String {
            (0..n).map(|i| format!("node {i} add\n")).collect::<Vec<_>>().concat()
        };
        let at_limit = format!("dfg t\n{}", nodes(MAX_NODES));
        assert_eq!(parse(&at_limit).unwrap().node_count(), MAX_NODES);
        let err = parse(&format!("dfg t\n{}", nodes(MAX_NODES + 1))).unwrap_err();
        assert!(matches!(err, ParseDfgError::Syntax { line, .. } if line == MAX_NODES + 2), "{err:?}");
        assert!(err.to_string().contains("node count exceeds the limit"), "{err}");
        assert!(suite::all().iter().all(|g| g.node_count() <= MAX_NODES));
    }

    #[test]
    fn rejects_edge_counts_above_the_limit() {
        // 200 nodes have 19 900 forward pairs, more than the limit.
        let text = |edges: usize| -> String {
            let mut t = String::from("dfg t\n");
            for i in 0..200 {
                t.push_str(&format!("node {i} add\n"));
            }
            let pairs = (0..200).flat_map(|i| (i + 1..200).map(move |j| (i, j)));
            for (i, j) in pairs.take(edges) {
                t.push_str(&format!("edge {i} {j}\n"));
            }
            t
        };
        assert_eq!(parse(&text(MAX_EDGES)).unwrap().edge_count(), MAX_EDGES);
        let err = parse(&text(MAX_EDGES + 1)).unwrap_err();
        let last = 1 + 200 + MAX_EDGES + 1;
        assert!(matches!(err, ParseDfgError::Syntax { line, .. } if line == last), "{err:?}");
        assert!(err.to_string().contains("edge count exceeds the limit"), "{err}");
        assert!(suite::all().iter().all(|g| g.edge_count() <= MAX_EDGES));
    }

    #[test]
    fn rejects_sparse_node_ids() {
        let err = parse("dfg t\nnode 1 add\n").unwrap_err();
        assert!(matches!(err, ParseDfgError::Syntax { line: 2, .. }));
    }

    #[test]
    fn rejects_unknown_keyword() {
        assert!(parse("blah\n").is_err());
    }

    #[test]
    fn rejects_bad_opcode() {
        let err = parse("dfg t\nnode 0 warp\n").unwrap_err();
        assert!(err.to_string().contains("warp"));
    }

    #[test]
    fn graph_errors_propagate() {
        let err = parse("dfg t\nnode 0 add\nnode 1 add\nedge 0 1\nedge 1 0\n").unwrap_err();
        assert_eq!(err, ParseDfgError::Graph(crate::DfgError::ForwardCycle));
    }
}

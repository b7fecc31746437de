//! A line-oriented text format for fabric descriptions, so users can
//! define CGRAs in files rather than code (the CGRA-ME workflow).
//!
//! ```text
//! cgra my_fabric 4 4
//! interconnect mesh
//! interconnect diagonal
//! rowbus                    # ADRES-style shared memory bus
//! capability 0 0 arith      # row col {all|compute|arith|none|custom}
//! capability 1 2 logic+mem
//! link 0 15                 # extra directed link by PE id
//! ```
//!
//! A grid has at most [`MAX_SIDE`] rows and [`MAX_SIDE`] columns.

use crate::{Capability, Cgra, CgraBuilder, Interconnect, PeId};
use std::fmt;

/// Largest row or column count [`parse`] accepts: twice the largest
/// preset (the 16×16 baseline). A mapper's per-problem tables grow
/// quadratically with the PE count (all-pairs hop distances, and
/// reachability bitsets per hop bound), so untrusted text must not set
/// it without bound; at 32×32 they stay within tens of MB.
pub const MAX_SIDE: usize = 32;

/// Errors from [`parse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseCgraError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseCgraError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseCgraError {}

/// Serialize a fabric to the text format.
#[must_use]
pub fn emit(cgra: &Cgra) -> String {
    let mut out = format!("cgra {} {} {}\n", cgra.name().replace(' ', "_"), cgra.rows(), cgra.cols());
    for style in cgra.interconnects() {
        out.push_str(&format!("interconnect {style}\n"));
    }
    if cgra.row_shared_mem_bus() {
        out.push_str("rowbus\n");
    }
    for p in cgra.pe_ids() {
        let pe = cgra.pe(p);
        if pe.capability != Capability::ALL {
            out.push_str(&format!(
                "capability {} {} {}\n",
                pe.row,
                pe.col,
                cap_name(pe.capability)
            ));
        }
    }
    out
}

fn cap_name(c: Capability) -> String {
    match c {
        Capability::ALL => "all".to_owned(),
        Capability::COMPUTE => "compute".to_owned(),
        Capability::ARITH => "arith".to_owned(),
        Capability::NONE => "none".to_owned(),
        other => other.to_string(), // logic+arith+mem style
    }
}

fn parse_capability(tok: &str) -> Option<Capability> {
    match tok {
        "all" => Some(Capability::ALL),
        "compute" => Some(Capability::COMPUTE),
        "arith" => Some(Capability::ARITH),
        "none" => Some(Capability::NONE),
        custom => {
            let mut cap = Capability::NONE;
            for part in custom.split('+') {
                match part {
                    "logic" => cap.logical = true,
                    "arith" => cap.arithmetic = true,
                    "mem" => cap.memory = true,
                    _ => return None,
                }
            }
            Some(cap)
        }
    }
}

fn parse_interconnect(tok: &str) -> Option<Interconnect> {
    match tok {
        "mesh" => Some(Interconnect::Mesh),
        "1-hop" | "onehop" => Some(Interconnect::OneHop),
        "diagonal" => Some(Interconnect::Diagonal),
        "toroidal" | "torus" => Some(Interconnect::Toroidal),
        "crossbar" => Some(Interconnect::Crossbar),
        _ => None,
    }
}

/// Parse a fabric from the text format.
///
/// # Errors
/// Returns [`ParseCgraError`] with the offending line on malformed
/// input, a grid side above [`MAX_SIDE`] included.
pub fn parse(text: &str) -> Result<Cgra, ParseCgraError> {
    let err = |line: usize, message: &str| ParseCgraError { line, message: message.to_owned() };
    let mut builder: Option<CgraBuilder> = None;
    let mut dims = (0usize, 0usize);
    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut parts = line.split_whitespace();
        let keyword = parts.next().expect("non-empty");
        match keyword {
            "cgra" => {
                let name = parts.next().ok_or_else(|| err(lineno, "missing name"))?;
                let rows: usize = parts
                    .next()
                    .and_then(|t| t.parse().ok())
                    .ok_or_else(|| err(lineno, "missing or invalid row count"))?;
                let cols: usize = parts
                    .next()
                    .and_then(|t| t.parse().ok())
                    .ok_or_else(|| err(lineno, "missing or invalid column count"))?;
                if rows == 0 || cols == 0 {
                    return Err(err(lineno, "grid must be non-empty"));
                }
                if rows > MAX_SIDE || cols > MAX_SIDE {
                    return Err(err(
                        lineno,
                        &format!("grid {rows}x{cols} exceeds the limit of {MAX_SIDE} per side"),
                    ));
                }
                dims = (rows, cols);
                builder = Some(CgraBuilder::new(name.replace('_', " "), rows, cols));
            }
            "interconnect" => {
                let b = builder.take().ok_or_else(|| err(lineno, "`cgra` line must come first"))?;
                let tok = parts.next().ok_or_else(|| err(lineno, "missing style"))?;
                let style = parse_interconnect(tok)
                    .ok_or_else(|| err(lineno, &format!("unknown interconnect `{tok}`")))?;
                builder = Some(b.interconnect(style));
            }
            "rowbus" => {
                let b = builder.take().ok_or_else(|| err(lineno, "`cgra` line must come first"))?;
                builder = Some(b.row_shared_mem_bus());
            }
            "capability" => {
                let b = builder.take().ok_or_else(|| err(lineno, "`cgra` line must come first"))?;
                let row: usize = parts
                    .next()
                    .and_then(|t| t.parse().ok())
                    .ok_or_else(|| err(lineno, "missing row"))?;
                let col: usize = parts
                    .next()
                    .and_then(|t| t.parse().ok())
                    .ok_or_else(|| err(lineno, "missing column"))?;
                if row >= dims.0 || col >= dims.1 {
                    return Err(err(lineno, "coordinate outside grid"));
                }
                let tok = parts.next().ok_or_else(|| err(lineno, "missing capability"))?;
                let cap = parse_capability(tok)
                    .ok_or_else(|| err(lineno, &format!("unknown capability `{tok}`")))?;
                builder = Some(b.capability(row, col, cap));
            }
            "link" => {
                let b = builder.take().ok_or_else(|| err(lineno, "`cgra` line must come first"))?;
                let from: u32 = parts
                    .next()
                    .and_then(|t| t.parse().ok())
                    .ok_or_else(|| err(lineno, "missing source PE"))?;
                let to: u32 = parts
                    .next()
                    .and_then(|t| t.parse().ok())
                    .ok_or_else(|| err(lineno, "missing target PE"))?;
                let n = (dims.0 * dims.1) as u32;
                if from >= n || to >= n {
                    return Err(err(lineno, "link endpoint outside grid"));
                }
                builder = Some(b.link(PeId(from), PeId(to)));
            }
            other => return Err(err(lineno, &format!("unknown keyword `{other}`"))),
        }
        if parts.next().is_some() {
            return Err(err(lineno, "trailing tokens"));
        }
    }
    builder
        .map(CgraBuilder::finish)
        .ok_or_else(|| err(text.lines().count().max(1), "no `cgra` declaration found"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;

    #[test]
    fn round_trips_presets() {
        for fabric in presets::table1().iter().chain(&[presets::heterogeneous()]) {
            let text = emit(fabric);
            let back = parse(&text).unwrap_or_else(|e| panic!("{}: {e}", fabric.name()));
            assert_eq!(back.rows(), fabric.rows());
            assert_eq!(back.interconnects(), fabric.interconnects());
            assert_eq!(back.row_shared_mem_bus(), fabric.row_shared_mem_bus());
            for p in fabric.pe_ids() {
                assert_eq!(back.pe(p).capability, fabric.pe(p).capability, "{p}");
            }
        }
    }

    #[test]
    fn parses_full_example() {
        let text = "\n# demo\ncgra my_fab 2 3\ninterconnect mesh\nrowbus\ncapability 0 0 arith\ncapability 1 2 logic+mem\nlink 0 5\n";
        let g = parse(text).unwrap();
        assert_eq!(g.name(), "my fab");
        assert_eq!((g.rows(), g.cols()), (2, 3));
        assert!(g.row_shared_mem_bus());
        assert_eq!(g.pe(PeId(0)).capability, Capability::ARITH);
        assert!(g.pe(PeId(5)).capability.logical);
        assert!(g.pe(PeId(5)).capability.memory);
        assert!(!g.pe(PeId(5)).capability.arithmetic);
        assert!(g.links_from(PeId(0)).contains(&PeId(5)));
    }

    #[test]
    fn rejects_grid_sides_above_the_limit() {
        let at_limit = parse(&format!("cgra x {MAX_SIDE} {MAX_SIDE}\n")).unwrap();
        assert_eq!(at_limit.pe_count(), MAX_SIDE * MAX_SIDE);
        for (rows, cols) in [(MAX_SIDE + 1, 1), (1, MAX_SIDE + 1), (1 << 20, 1 << 20)] {
            let e = parse(&format!("# big\ncgra x {rows} {cols}\n")).unwrap_err();
            assert_eq!(e.line, 2, "{e}");
            assert!(e.message.contains("exceeds the limit"), "{e}");
        }
        let presets = presets::table1().into_iter().chain([presets::heterogeneous()]);
        assert!(presets.into_iter().all(|f| f.rows() <= MAX_SIDE && f.cols() <= MAX_SIDE));
    }

    #[test]
    fn rejects_bad_inputs() {
        assert!(parse("interconnect mesh\n").is_err()); // before cgra
        assert!(parse("cgra x 0 4\n").is_err()); // empty grid
        assert!(parse("cgra x 2 2\ninterconnect warp\n").is_err());
        assert!(parse("cgra x 2 2\ncapability 5 0 all\n").is_err());
        assert!(parse("cgra x 2 2\nlink 0 9\n").is_err());
        assert!(parse("").is_err());
        assert!(parse("cgra x 2 2 extra\n").is_err());
    }
}

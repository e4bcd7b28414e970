//! Figure-series helpers: run the paper's experiment grids and return
//! the rows each figure plots.
//!
//! Figures 4-7 of the paper share one layout: for a fixed inter-node
//! technique `X` (STATIC, GSS, TSS, FAC2 respectively), plot the
//! parallel loop time over node counts {2, 4, 8, 16} for every
//! intra-node technique `Y` in {STATIC, SS, GSS, TSS, FAC2}, comparing
//! MPI+OpenMP (where the Intel OpenMP runtime supports `Y`) against the
//! proposed MPI+MPI approach — sub-figure (a) Mandelbrot, (b) PSIA.

use crate::schedule::HierSchedule;
use cluster_sim::MachineParams;
use dls::Kind;
use hier::{Approach, HierSpec};
use workloads::CostTable;

/// The node counts of the paper's x-axis.
pub const NODE_COUNTS: [u32; 4] = [2, 4, 8, 16];
/// Workers per node used throughout the paper's evaluation.
pub const WORKERS_PER_NODE: u32 = 16;

/// One measured point of a figure.
#[derive(Clone, Copy, Debug)]
pub struct FigurePoint {
    /// Inter-node technique.
    pub inter: Kind,
    /// Intra-node technique.
    pub intra: Kind,
    /// Implementation approach.
    pub approach: Approach,
    /// Number of compute nodes.
    pub nodes: u32,
    /// Parallel loop time in seconds (the figure's y-axis).
    pub seconds: f64,
}

/// Run one figure's full grid for one application (one sub-figure):
/// every intra panel x node count x approach. Combinations the Intel
/// OpenMP runtime cannot express (TSS/FAC2 intra under MPI+OpenMP) are
/// skipped, exactly as in the paper.
pub fn figure_grid(
    inter: Kind,
    table: &CostTable,
    machine: MachineParams,
    workers_per_node: u32,
) -> Vec<FigurePoint> {
    let mut points = Vec::new();
    for intra in Kind::PAPER {
        for approach in Approach::ALL {
            let spec = HierSpec::new(inter, intra);
            if approach == Approach::MpiOpenMp && !spec.supported_by_openmp() {
                continue;
            }
            for nodes in NODE_COUNTS {
                let schedule = HierSchedule::builder()
                    .inter(inter)
                    .intra(intra)
                    .approach(approach)
                    .nodes(nodes)
                    .workers_per_node(workers_per_node)
                    .machine(machine)
                    .build();
                let result = schedule.simulate(table);
                points.push(FigurePoint {
                    inter,
                    intra,
                    approach,
                    nodes,
                    seconds: result.seconds(),
                });
            }
        }
    }
    points
}

/// Fetch one point from a grid.
pub fn point(points: &[FigurePoint], intra: Kind, approach: Approach, nodes: u32) -> Option<f64> {
    points
        .iter()
        .find(|p| p.intra == intra && p.approach == approach && p.nodes == nodes)
        .map(|p| p.seconds)
}

/// Render a grid as the text table the `figures` binary prints: one
/// block per intra panel, one row per approach, one column per node
/// count — mirroring the sub-plot layout of the paper's figures.
pub fn render_grid(title: &str, points: &[FigurePoint]) -> String {
    let mut out = String::new();
    out.push_str(&format!("{title}\n"));
    out.push_str(&format!("{:=<width$}\n", "", width = title.len()));
    for intra in Kind::PAPER {
        let any: Vec<&FigurePoint> = points.iter().filter(|p| p.intra == intra).collect();
        if any.is_empty() {
            continue;
        }
        out.push_str(&format!("\n  intra-node: {intra}\n"));
        out.push_str("    approach      ");
        for n in NODE_COUNTS {
            out.push_str(&format!("{n:>4} nodes  "));
        }
        out.push('\n');
        for approach in Approach::ALL {
            let row: Vec<Option<f64>> =
                NODE_COUNTS.iter().map(|&n| point(points, intra, approach, n)).collect();
            if row.iter().all(Option::is_none) {
                out.push_str(&format!(
                    "    {:<12}  (not supported by the Intel OpenMP runtime)\n",
                    approach.name()
                ));
                continue;
            }
            out.push_str(&format!("    {:<12}", approach.name()));
            for s in row {
                match s {
                    Some(s) => out.push_str(&format!("{s:>9.2}s  ")),
                    None => out.push_str("        -  "),
                }
            }
            out.push('\n');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::synthetic::Synthetic;

    fn small_grid() -> Vec<FigurePoint> {
        let w = Synthetic::uniform(3_000, 100, 2_000, 5);
        let table = CostTable::build(&w);
        figure_grid(Kind::GSS, &table, MachineParams::default(), 4)
    }

    #[test]
    fn grid_has_expected_points() {
        let g = small_grid();
        // 5 intra panels x 4 node counts x 2 approaches, minus the
        // OpenMP-unsupported TSS/FAC2 panels (4 points each).
        assert_eq!(g.len(), 5 * 4 * 2 - 2 * 4);
    }

    #[test]
    fn openmp_rows_absent_for_tss_fac2() {
        let g = small_grid();
        for intra in [Kind::TSS, Kind::FAC2] {
            assert!(point(&g, intra, Approach::MpiOpenMp, 2).is_none());
            assert!(point(&g, intra, Approach::MpiMpi, 2).is_some());
        }
    }

    #[test]
    fn render_contains_all_panels() {
        let g = small_grid();
        let s = render_grid("Figure X", &g);
        for intra in Kind::PAPER {
            assert!(s.contains(&format!("intra-node: {intra}")), "{s}");
        }
        assert!(s.contains("not supported"));
    }
}

//! Cell grouping with the score function φ of Eq. 2.
//!
//! φ(gᵢ, gⱼ) = 1/ΔD + ϱ·w / (A(gᵢ) + A(gⱼ))
//!
//! Termination is identical to macro grouping: stop when every group
//! reaches one grid cell in area or the best score drops below ν.
//!
//! Exact greedy clustering is O(n³); the paper's industrial designs carry up
//! to a million cells, so above [`ClusterParams::exact_limit`] we fall back
//! to a bucketed approximation: cells are binned by hierarchy module and a
//! coarse spatial grid, and filled area-first into groups of one grid cell.
//! This preserves what φ optimises — spatial/hierarchical locality per unit
//! area — at O(n log n). The exact path is used (and tested) at small n.

use crate::params::ClusterParams;
use mmp_geom::Point;
use mmp_netlist::{CellId, Design, NodeRef, Placement};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// A cluster of standard cells, used to anchor macro-group legalization and
/// coarse wirelength estimation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellGroup {
    /// Member cells.
    pub members: Vec<CellId>,
    /// Total member area (µm²).
    pub area: f64,
    /// Area-weighted centroid in the initial placement (µm).
    pub center: Point,
}

impl CellGroup {
    fn singleton(design: &Design, placement: &Placement, id: CellId) -> Self {
        CellGroup {
            members: vec![id],
            area: design.cell(id).area(),
            center: placement.cell_center(id),
        }
    }

    fn merged(a: &CellGroup, b: &CellGroup) -> CellGroup {
        let area = a.area + b.area;
        let center = Point::new(
            (a.center.x * a.area + b.center.x * b.area) / area,
            (a.center.y * a.area + b.center.y * b.area) / area,
        );
        let mut members = a.members.clone();
        members.extend_from_slice(&b.members);
        CellGroup {
            members,
            area,
            center,
        }
    }

    /// Number of member cells.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// `true` when the group has no members (never produced by clustering).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }
}

/// The score φ of Eq. 2 for a candidate merge.
fn phi(a: &CellGroup, b: &CellGroup, connectivity: f64, params: &ClusterParams) -> f64 {
    let dd = a.center.euclidean_distance(b.center).max(1e-9);
    1.0 / dd + params.rho * connectivity / (a.area + b.area)
}

/// Connectivity of every cell pair, row-major `n×n`: entry `(i, j)` is
/// the total weight of the nets touching both cells. Built net by net,
/// each net adding its weight once per distinct cell pair, so every entry
/// sums its nets in ascending net order.
fn pair_connectivity(design: &Design, n: usize) -> Vec<f64> {
    let mut conn = vec![0.0; n * n];
    // The last net that listed each cell, to count a cell once per net.
    let mut seen = vec![usize::MAX; n];
    let mut cells: Vec<usize> = Vec::new();
    for (net_idx, net) in design.nets().iter().enumerate() {
        cells.clear();
        for pin in &net.pins {
            if let NodeRef::Cell(c) = pin.node {
                if let Some(last) = seen.get_mut(c.index()) {
                    if *last != net_idx {
                        *last = net_idx;
                        cells.push(c.index());
                    }
                }
            }
        }
        for (p, &a) in cells.iter().enumerate() {
            for &b in cells.iter().skip(p + 1) {
                for idx in [a * n + b, b * n + a] {
                    if let Some(w) = conn.get_mut(idx) {
                        *w += net.weight;
                    }
                }
            }
        }
    }
    conn
}

/// The group when it is still below one grid cell in area (it can merge).
fn mergeable<'a>(g: &'a Option<CellGroup>, params: &ClusterParams) -> Option<&'a CellGroup> {
    g.as_ref().filter(|g| g.area < params.grid_area)
}

/// The best merge partner `j > i` of group `i`: the first column holding
/// the highest φ (`None` when the group cannot merge or has no partner).
fn row_best(
    groups: &[Option<CellGroup>],
    conn: &[f64],
    i: usize,
    params: &ClusterParams,
) -> Option<(usize, f64)> {
    let gi = mergeable(groups.get(i)?, params)?;
    let row = conn.chunks_exact(groups.len()).nth(i)?;
    let mut best: Option<(usize, f64)> = None;
    for (j, (g, &w)) in groups.iter().zip(row).enumerate().skip(i + 1) {
        let Some(gj) = mergeable(g, params) else {
            continue;
        };
        let score = phi(gi, gj, w, params);
        if best.is_none_or(|(_, b)| score > b) {
            best = Some((j, score));
        }
    }
    best
}

/// Exact greedy clustering (small designs / tests): repeatedly merges the
/// pair with the highest φ, ties going to the first pair in `(i, j)`
/// order.
///
/// Each group caches its best partner among the groups after it. A merge
/// of `(i, j)` changes only the scores involving `i` or `j`, so only the
/// rows whose best was `i` or `j` are rescanned; every other row earlier
/// than `i` just compares its new score against `i`. The pair
/// connectivity is summed net by net in ascending net order. Both keep
/// the groups bit-identical to rescanning all pairs after every merge
/// (φ is never NaN: the design builder rejects empty cells and
/// non-finite net weights, so row maxima compose like the full scan).
fn cluster_cells_exact(
    design: &Design,
    placement: &Placement,
    params: &ClusterParams,
) -> Vec<CellGroup> {
    let n = design.cells().len();
    let mut groups: Vec<Option<CellGroup>> = (0..n)
        .map(|i| {
            Some(CellGroup::singleton(
                design,
                placement,
                CellId::from_index(i),
            ))
        })
        .collect();
    let mut conn = pair_connectivity(design, n);
    let mut best: Vec<Option<(usize, f64)>> = (0..n)
        .map(|i| row_best(&groups, &conn, i, params))
        .collect();
    loop {
        // The first row holding the highest row best is the pair a full
        // scan in `(i, j)` order picks.
        let mut pick: Option<(usize, usize, f64)> = None;
        for (i, &b) in best.iter().enumerate() {
            if let Some((j, score)) = b {
                if pick.is_none_or(|(_, _, p)| score > p) {
                    pick = Some((i, j, score));
                }
            }
        }
        let Some((i, j, score)) = pick else { break };
        if score < params.nu {
            break;
        }
        let (Some(gi), Some(gj)) = (groups[i].as_ref(), groups[j].as_ref()) else {
            break; // unreachable: row bests only record live indices
        };
        groups[i] = Some(CellGroup::merged(gi, gj));
        groups[j] = None;
        // Row and column i absorb j's connectivity; j's are never read
        // again.
        for k in (0..n).filter(|&k| k != i && k != j) {
            let w = conn[i * n + k] + conn[j * n + k];
            conn[i * n + k] = w;
            conn[k * n + i] = w;
        }
        best[j] = None;
        best[i] = row_best(&groups, &conn, i, params);
        let gi = groups.get(i).and_then(|g| mergeable(g, params));
        for r in (0..j).filter(|&r| r != i) {
            match best[r] {
                Some((c, _)) if c == i || c == j => best[r] = row_best(&groups, &conn, r, params),
                current if r < i => {
                    // Only φ(r, i) moved in this row.
                    let (Some(gr), Some(gi)) = (mergeable(&groups[r], params), gi) else {
                        continue;
                    };
                    let score = phi(gr, gi, conn[r * n + i], params);
                    if current.is_none_or(|(c, b)| score > b || (score == b && i < c)) {
                        best[r] = Some((i, score));
                    }
                }
                _ => {}
            }
        }
    }
    groups.into_iter().flatten().collect()
}

/// Bucketed approximation for large designs.
fn cluster_cells_bucketed(
    design: &Design,
    placement: &Placement,
    params: &ClusterParams,
) -> Vec<CellGroup> {
    const SPATIAL_BINS: usize = 32;
    let region = design.region();
    let bin_of = |p: Point| -> (usize, usize) {
        let bx = (((p.x - region.x) / region.width * SPATIAL_BINS as f64) as usize)
            .min(SPATIAL_BINS - 1);
        let by = (((p.y - region.y) / region.height * SPATIAL_BINS as f64) as usize)
            .min(SPATIAL_BINS - 1);
        (bx, by)
    };
    // BTreeMap: bucket iteration order is the sorted key order, so the
    // group sequence is deterministic by construction.
    let mut buckets: BTreeMap<(String, usize, usize), Vec<CellId>> = BTreeMap::new();
    for i in 0..design.cells().len() {
        let id = CellId::from_index(i);
        let (bx, by) = bin_of(placement.cell_center(id));
        buckets
            .entry((design.cell(id).hierarchy.clone(), bx, by))
            .or_default()
            .push(id);
    }
    let mut out = Vec::new();
    for cells in buckets.values() {
        let mut current: Option<CellGroup> = None;
        for &id in cells {
            let single = CellGroup::singleton(design, placement, id);
            let grown = match current.take() {
                None => single,
                Some(g) => CellGroup::merged(&g, &single),
            };
            if grown.area >= params.grid_area {
                out.push(grown);
            } else {
                current = Some(grown);
            }
        }
        if let Some(rest) = current {
            // Fold a small tail into the previous group of the same bucket
            // when one exists; otherwise keep it as its own group.
            if rest.area < params.grid_area * 0.25 {
                if let Some(prev) = out.last_mut() {
                    *prev = CellGroup::merged(prev, &rest);
                    continue;
                }
            }
            out.push(rest);
        }
    }
    out
}

/// Groups the standard cells of `design` per Eq. 2.
///
/// Uses exact greedy clustering up to
/// [`ClusterParams::exact_limit`] cells and the documented bucketed
/// approximation beyond it. Every cell ends up in exactly one group.
pub fn cluster_cells(
    design: &Design,
    placement: &Placement,
    params: &ClusterParams,
) -> Vec<CellGroup> {
    if design.cells().len() <= params.exact_limit {
        cluster_cells_exact(design, placement, params)
    } else {
        cluster_cells_bucketed(design, placement, params)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmp_geom::Rect;
    use mmp_netlist::{DesignBuilder, NetId, SyntheticSpec};
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    /// Connectivity between two cell sets: total weight of nets touching both.
    fn set_connectivity(design: &Design, a: &[CellId], b: &[CellId]) -> f64 {
        let mut nets_a: BTreeSet<NetId> = BTreeSet::new();
        for &c in a {
            for &n in design.nets_of_cell(c) {
                nets_a.insert(n);
            }
        }
        let mut total = 0.0;
        let mut counted: BTreeSet<NetId> = BTreeSet::new();
        for &c in b {
            for &n in design.nets_of_cell(c) {
                if nets_a.contains(&n) && counted.insert(n) {
                    total += design.net(n).weight;
                }
            }
        }
        total
    }

    /// The original exact clustering — every pair rescanned after every
    /// merge, connectivity from per-pair net-set intersections — kept as
    /// the oracle the incremental version must match bit for bit.
    fn cluster_cells_oracle(
        design: &Design,
        placement: &Placement,
        params: &ClusterParams,
    ) -> Vec<CellGroup> {
        let n = design.cells().len();
        let ids: Vec<CellId> = (0..n).map(CellId::from_index).collect();
        let mut groups: Vec<Option<CellGroup>> = ids
            .iter()
            .map(|&id| Some(CellGroup::singleton(design, placement, id)))
            .collect();
        let mut conn: Vec<Vec<f64>> = vec![vec![0.0; n]; n];
        for i in 0..n {
            for j in (i + 1)..n {
                let w = set_connectivity(design, &[ids[i]], &[ids[j]]);
                conn[i][j] = w;
                conn[j][i] = w;
            }
        }
        loop {
            let mut best: Option<(usize, usize, f64)> = None;
            for i in 0..n {
                let Some(gi) = groups[i].as_ref() else {
                    continue;
                };
                if gi.area >= params.grid_area {
                    continue;
                }
                for j in (i + 1)..n {
                    let Some(gj) = groups[j].as_ref() else {
                        continue;
                    };
                    if gj.area >= params.grid_area {
                        continue;
                    }
                    let score = phi(gi, gj, conn[i][j], params);
                    if best.is_none_or(|(_, _, s)| score > s) {
                        best = Some((i, j, score));
                    }
                }
            }
            let Some((i, j, score)) = best else { break };
            if score < params.nu {
                break;
            }
            let (Some(gi), Some(gj)) = (groups[i].as_ref(), groups[j].as_ref()) else {
                break; // unreachable: `best` only records live indices
            };
            let merged = CellGroup::merged(gi, gj);
            groups[i] = Some(merged);
            groups[j] = None;
            // Cross-pattern update over rows i, j and column k of the symmetric
            // matrix — indexing is clearer than iterator juggling here.
            #[allow(clippy::needless_range_loop)]
            for k in 0..n {
                if k != i {
                    conn[i][k] += conn[j][k];
                    conn[k][i] = conn[i][k];
                }
                conn[j][k] = 0.0;
                conn[k][j] = 0.0;
            }
        }
        groups.into_iter().flatten().collect()
    }

    /// Same members in the same order, same area and center bits.
    fn bit_identical(got: &[CellGroup], want: &[CellGroup]) -> bool {
        let bits = |g: &CellGroup| {
            (
                g.members.clone(),
                g.area.to_bits(),
                g.center.x.to_bits(),
                g.center.y.to_bits(),
            )
        };
        got.len() == want.len() && got.iter().zip(want).all(|(a, b)| bits(a) == bits(b))
    }

    /// Cells on a lattice (many equal distances, so many tied scores),
    /// chained by nets.
    fn lattice_design(side: usize) -> (Design, Placement) {
        let mut b = DesignBuilder::new("l", Rect::new(0.0, 0.0, 100.0, 100.0));
        let mut ids = Vec::new();
        for i in 0..side * side {
            ids.push(b.add_cell(format!("c{i}"), 1.0, 1.0, ""));
        }
        for (i, pair) in ids.windows(2).enumerate().filter(|(i, _)| i % 3 == 0) {
            let pins = pair.iter().map(|&c| (NodeRef::Cell(c), Point::ORIGIN));
            b.add_net(format!("n{i}"), pins, 1.0).unwrap();
        }
        let d = b.build().unwrap();
        let mut pl = Placement::initial(&d);
        for (i, &c) in ids.iter().enumerate() {
            let (x, y) = ((i % side) as f64, (i / side) as f64);
            pl.set_cell_center(c, Point::new(10.0 + 5.0 * x, 10.0 + 5.0 * y));
        }
        (d, pl)
    }

    #[test]
    fn tied_scores_match_the_oracle() {
        let (d, pl) = lattice_design(6);
        for grid_area in [2.0, 3.5, 9.0] {
            let params = ClusterParams::paper(grid_area);
            let got = cluster_cells_exact(&d, &pl, &params);
            let want = cluster_cells_oracle(&d, &pl, &params);
            assert!(bit_identical(&got, &want), "grid {grid_area}");
        }
    }

    #[test]
    fn a_merged_group_tying_an_earlier_best_takes_its_place() {
        // Cells 1 and 2 merge first (close, strongly connected) into a
        // group centred (10, 0): exactly as far from cell 0 as cell 3 is,
        // with the same area, so φ(0, 1) ties row 0's cached best φ(0, 3)
        // and the earlier column must win, as in a full scan.
        let mut b = DesignBuilder::new("tie", Rect::new(-50.0, -50.0, 100.0, 100.0));
        let c0 = b.add_cell("c0", 1.0, 1.0, "");
        let c1 = b.add_cell("c1", 1.0, 1.0, "");
        let c2 = b.add_cell("c2", 1.0, 1.0, "");
        let c3 = b.add_cell("c3", 2.0, 1.0, "");
        let pins = [c1, c2].map(|c| (NodeRef::Cell(c), Point::ORIGIN));
        b.add_net("n12", pins, 10.0).unwrap();
        let d = b.build().unwrap();
        let mut pl = Placement::initial(&d);
        for (c, (x, y)) in [
            (c0, (0.0, 0.0)),
            (c1, (10.0, 0.5)),
            (c2, (10.0, -0.5)),
            (c3, (0.0, 10.0)),
        ] {
            pl.set_cell_center(c, Point::new(x, y));
        }
        // Grid area 3: the first two merges fill a group, then stop.
        let params = ClusterParams::paper(3.0);
        let got = cluster_cells_exact(&d, &pl, &params);
        assert!(bit_identical(&got, &cluster_cells_oracle(&d, &pl, &params)));
        assert_eq!(got[0].members, vec![c0, c1, c2]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The cached-row-best clustering and the net-by-net connectivity
        /// reproduce the full-rescan oracle bit for bit on random designs
        /// below `exact_limit`: members, area bits and center bits.
        #[test]
        fn incremental_exact_matches_the_full_rescan_oracle(
            cells in 2usize..160,
            nets in 1usize..300,
            hier in 0u8..2,
            seed in 0u64..10_000,
            divisor in 16.0f64..1024.0,
        ) {
            let d = SyntheticSpec::small("p", 2, 0, 4, cells, nets, hier == 1, seed).generate();
            let pl = Placement::initial(&d);
            let params = ClusterParams::paper(d.region().area() / divisor);
            prop_assert!(d.cells().len() <= params.exact_limit);
            let got = cluster_cells_exact(&d, &pl, &params);
            let want = cluster_cells_oracle(&d, &pl, &params);
            prop_assert!(bit_identical(&got, &want));
        }
    }

    #[test]
    fn empty_design_yields_no_groups() {
        let d = DesignBuilder::new("e", Rect::new(0.0, 0.0, 10.0, 10.0))
            .build()
            .unwrap();
        let pl = Placement::initial(&d);
        assert!(cluster_cells(&d, &pl, &ClusterParams::paper(1.0)).is_empty());
    }

    #[test]
    fn connected_nearby_cells_merge_first() {
        let mut b = DesignBuilder::new("c", Rect::new(0.0, 0.0, 1000.0, 1000.0));
        let c0 = b.add_cell("c0", 1.0, 1.0, "");
        let c1 = b.add_cell("c1", 1.0, 1.0, "");
        let c2 = b.add_cell("c2", 1.0, 1.0, "");
        b.add_net(
            "n",
            [
                (NodeRef::Cell(c0), Point::ORIGIN),
                (NodeRef::Cell(c1), Point::ORIGIN),
            ],
            1.0,
        )
        .unwrap();
        let d = b.build().unwrap();
        let mut pl = Placement::initial(&d);
        pl.set_cell_center(c0, Point::new(10.0, 10.0));
        pl.set_cell_center(c1, Point::new(11.0, 10.0));
        pl.set_cell_center(c2, Point::new(900.0, 900.0));
        // grid area 2: a merged pair (area 2) stops merging.
        let gs = cluster_cells(&d, &pl, &ClusterParams::paper(2.0));
        let g0 = gs.iter().find(|g| g.members.contains(&c0)).unwrap();
        assert!(g0.members.contains(&c1));
        assert!(!g0.members.contains(&c2));
    }

    #[test]
    fn every_cell_in_exactly_one_group_exact() {
        let d = SyntheticSpec::small("x", 4, 0, 8, 120, 200, true, 13).generate();
        let pl = Placement::initial(&d);
        let params = ClusterParams::paper(d.region().area() / 256.0);
        assert!(d.cells().len() <= params.exact_limit);
        let gs = cluster_cells(&d, &pl, &params);
        let mut all: Vec<CellId> = gs.iter().flat_map(|g| g.members.clone()).collect();
        all.sort();
        let expected: Vec<CellId> = (0..d.cells().len()).map(CellId::from_index).collect();
        assert_eq!(all, expected);
    }

    #[test]
    fn every_cell_in_exactly_one_group_bucketed() {
        let d = SyntheticSpec::small("b", 4, 0, 8, 500, 700, true, 13).generate();
        let pl = Placement::initial(&d);
        let mut params = ClusterParams::paper(d.region().area() / 256.0);
        params.exact_limit = 100; // force bucketed path
        let gs = cluster_cells(&d, &pl, &params);
        let mut all: Vec<CellId> = gs.iter().flat_map(|g| g.members.clone()).collect();
        all.sort();
        let expected: Vec<CellId> = (0..d.cells().len()).map(CellId::from_index).collect();
        assert_eq!(all, expected);
    }

    #[test]
    fn bucketed_groups_respect_hierarchy() {
        let mut b = DesignBuilder::new("h", Rect::new(0.0, 0.0, 100.0, 100.0));
        for i in 0..10 {
            b.add_cell(format!("a{i}"), 1.0, 1.0, "top/a");
            b.add_cell(format!("b{i}"), 1.0, 1.0, "top/b");
        }
        let d = b.build().unwrap();
        let pl = Placement::initial(&d);
        let mut params = ClusterParams::paper(5.0);
        params.exact_limit = 0; // force bucketed path
        let gs = cluster_cells(&d, &pl, &params);
        for g in &gs {
            let hiers: std::collections::BTreeSet<&str> = g
                .members
                .iter()
                .map(|&c| d.cell(c).hierarchy.as_str())
                .collect();
            assert_eq!(hiers.len(), 1, "bucketed group mixes hierarchies");
        }
    }

    #[test]
    fn group_areas_are_bounded() {
        let d = SyntheticSpec::small("a", 4, 0, 8, 300, 500, false, 5).generate();
        let pl = Placement::initial(&d);
        let grid_area = d.region().area() / 256.0;
        let mut params = ClusterParams::paper(grid_area);
        params.exact_limit = 1_000;
        let gs = cluster_cells(&d, &pl, &params);
        let max_cell_area = d.cells().iter().map(|c| c.area()).fold(0.0f64, f64::max);
        for g in &gs {
            // One merge can overshoot by at most one grid-area (the partner
            // group was itself < grid_area), plus tail folding by 25%.
            assert!(
                g.area <= 2.0 * grid_area + max_cell_area + grid_area * 0.25,
                "group area {} too large (grid {})",
                g.area,
                grid_area
            );
        }
    }

    #[test]
    fn merged_center_is_area_weighted() {
        let a = CellGroup {
            members: vec![CellId(0)],
            area: 1.0,
            center: Point::new(0.0, 0.0),
        };
        let b = CellGroup {
            members: vec![CellId(1)],
            area: 3.0,
            center: Point::new(8.0, 4.0),
        };
        let m = CellGroup::merged(&a, &b);
        assert_eq!(m.center, Point::new(6.0, 3.0));
        assert_eq!(m.area, 4.0);
        assert_eq!(m.len(), 2);
    }
}

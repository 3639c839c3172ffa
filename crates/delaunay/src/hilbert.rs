//! Hilbert-curve numbering of a point set ([`rank_sites`]).
//!
//! A triangulation's canonical vertex ids are ranks along the Hilbert
//! space-filling curve of [`vaq_geom::hilbert`], the order the engine's
//! R-tree packs its leaves in. The build inserts vertices in id order,
//! so the remembering walk from the previous insertion takes `O(1)`
//! expected steps (BRIO-style), and Delaunay neighbours get nearby ids,
//! so graph walks read sites, adjacency rows and scratch nearly
//! sequentially.

use vaq_geom::hilbert::curve_order;
use vaq_geom::Point;

/// Merges coincident inputs and numbers the distinct points by their rank
/// along the Hilbert curve.
///
/// Returns `(sites, canon, members_off, members)`: the coordinates of
/// each canonical vertex, each input's vertex, and the CSR of each
/// vertex's inputs (ascending per row).
///
/// The points are read in [`curve_order`], the one sort of packed
/// `(key << 32) | input index` words that also orders the R-tree's
/// leaves. Inputs equal under `==` (so `-0.0` and `0.0`) share a grid
/// cell and merge; distinct points in one cell keep their order of first
/// occurrence. Numbering a triangulation's own sites
/// reproduces its ids, which is how a snapshot load recovers them.
pub fn rank_sites(points: &[Point]) -> (Vec<Point>, Vec<u32>, Vec<u32>, Vec<u32>) {
    let order = curve_order(points);

    // Vertices open in rank order, so the members CSR is written row by
    // row. `shared` holds a multi-input cell's (first occurrence, input).
    let n = points.len();
    let mut sites = Vec::with_capacity(n);
    let mut canon = vec![0u32; n];
    let mut members_off = Vec::with_capacity(n + 1);
    members_off.push(0u32);
    let mut members = Vec::with_capacity(n);
    let mut shared: Vec<(u32, u32)> = Vec::new();
    for run in order.chunk_by(|a, b| a >> 32 == b >> 32) {
        if let [word] = *run {
            let i = word as u32;
            canon[i as usize] = sites.len() as u32;
            sites.push(points[i as usize]);
            members.push(i);
            members_off.push(members.len() as u32);
            continue;
        }
        // Sorting the cell's inputs by coordinates, signed zeros folded,
        // makes equal points adjacent, smallest index first.
        let mut by_coords: Vec<u32> = run.iter().map(|&word| word as u32).collect();
        let folded = |i: u32| {
            let p = points[i as usize];
            (p.x + 0.0, p.y + 0.0)
        };
        by_coords.sort_unstable_by(|&a, &b| {
            let (pa, pb) = (folded(a), folded(b));
            pa.0.total_cmp(&pb.0)
                .then(pa.1.total_cmp(&pb.1))
                .then(a.cmp(&b))
        });
        shared.clear();
        for group in by_coords.chunk_by(|&a, &b| points[a as usize] == points[b as usize]) {
            if let [first, ..] = *group {
                shared.extend(group.iter().map(|&i| (first, i)));
            }
        }
        // Vertices in order of first occurrence, inputs ascending.
        shared.sort_unstable();
        for group in shared.chunk_by(|a, b| a.0 == b.0) {
            let v = sites.len() as u32;
            if let [(first, _), ..] = *group {
                sites.push(points[first as usize]);
            }
            for &(_, i) in group {
                canon[i as usize] = v;
                members.push(i);
            }
            members_off.push(members.len() as u32);
        }
    }
    (sites, canon, members_off, members)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vaq_geom::hilbert::{hilbert_index, HILBERT_ORDER};
    use vaq_geom::Rect;

    #[test]
    fn sort_handles_tiny_and_degenerate_inputs() {
        let (sites, canon, members_off, members) = rank_sites(&[]);
        assert!(sites.is_empty() && canon.is_empty() && members.is_empty());
        assert_eq!(members_off, vec![0]);
        let one = Point::new(3.0, 4.0);
        assert_eq!(
            rank_sites(&[one]),
            (vec![one], vec![0], vec![0, 1], vec![0])
        );
        // All coincident: one vertex holding every input, ascending.
        let same = vec![Point::new(1.0, 1.0); 4];
        assert_eq!(
            rank_sites(&same),
            (vec![same[0]], vec![0; 4], vec![0, 4], vec![0, 1, 2, 3])
        );
        // Zero-width bounding box (vertical line) must not divide by zero.
        let line: Vec<Point> = (0..5).map(|i| Point::new(2.0, f64::from(i))).collect();
        let (sites, canon, _, _) = rank_sites(&line);
        assert_eq!(sites.len(), 5);
        let mut ids = canon.clone();
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
        for (i, &c) in canon.iter().enumerate() {
            assert_eq!(sites[c as usize], line[i]);
        }
    }

    #[test]
    fn sort_groups_nearby_points() {
        // Two tight clusters far apart: each cluster's inputs take one
        // contiguous range of ids.
        let mut pts = Vec::new();
        for i in 0..10 {
            pts.push(Point::new(0.001 * f64::from(i), 0.0)); // cluster A
        }
        for i in 0..10 {
            pts.push(Point::new(100.0 + 0.001 * f64::from(i), 100.0)); // cluster B
        }
        let (_, canon, _, _) = rank_sites(&pts);
        let a_low = canon[..10].iter().all(|&c| c < 10);
        let a_high = canon[..10].iter().all(|&c| c >= 10);
        assert!(a_low || a_high, "clusters interleaved: {canon:?}");
    }

    /// Ids follow the curve, and numbering the sites again reproduces
    /// them: the sites are already in rank order.
    #[test]
    fn ids_are_curve_ranks_and_renumbering_is_identity() {
        let pts: Vec<Point> = (0..200)
            .map(|i| {
                let t = f64::from(i);
                Point::new((t * 0.618_034).fract(), (t * 0.414_214).fract())
            })
            .collect();
        let (sites, canon, members_off, members) = rank_sites(&pts);
        let bbox = Rect::from_points(pts.iter().copied());
        let side = f64::from((1u32 << HILBERT_ORDER) - 1);
        let key = |p: Point| {
            let gx = ((p.x - bbox.min.x) * (side / bbox.width())) as u32;
            let gy = ((p.y - bbox.min.y) * (side / bbox.height())) as u32;
            hilbert_index(HILBERT_ORDER, gx.min(side as u32), gy.min(side as u32))
        };
        assert!(sites.windows(2).all(|w| key(w[0]) <= key(w[1])));
        for (i, &c) in canon.iter().enumerate() {
            assert_eq!(sites[c as usize], pts[i]);
        }
        let again = rank_sites(&sites);
        let k = sites.len() as u32;
        assert_eq!(
            again,
            (sites, (0..k).collect(), (0..=k).collect(), (0..k).collect())
        );
        assert_eq!(members_off.len(), k as usize + 1);
        assert_eq!(members.len(), pts.len());
    }

    /// Inputs in one grid cell: equal ones merge (signed zeros too, even
    /// with a distinct point between them in input order), distinct ones
    /// keep their order of first occurrence.
    #[test]
    fn shared_cells_merge_equal_points_in_first_occurrence_order() {
        let pts = vec![
            Point::new(-0.0, 1.0),
            Point::new(1e-9, 1.0),
            Point::new(0.0, 1.0),
            Point::new(0.0, 1e-9),
            Point::new(-0.0, 1.0),
            Point::new(4.0, 4.0),
        ];
        let (sites, canon, members_off, members) = rank_sites(&pts);
        assert_eq!(sites.len(), 4);
        assert_eq!(canon[0], canon[2]);
        assert_eq!(canon[0], canon[4]);
        // (−0, 1) and (1e-9, 1) share a cell; the former occurs first.
        assert_eq!(canon[1], canon[0] + 1);
        let v = canon[0] as usize;
        assert_eq!(
            &members[members_off[v] as usize..members_off[v + 1] as usize],
            &[0, 2, 4]
        );
        assert_eq!(
            sites[v].x.to_bits(),
            (-0.0f64).to_bits(),
            "first occurrence"
        );
    }
}

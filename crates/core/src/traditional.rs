//! The traditional filter–refine area query the paper compares against.
//!
//! **Filter**: a window query on the R-tree with the MBR of the query area
//! produces the candidate set — every point inside the MBR.
//! **Refine**: each candidate is validated with an exact point-in-polygon
//! test. When the area is irregular (`area(A) ≪ area(MBR(A))`), most
//! candidates fail validation; that waste is what the paper's method
//! removes.
//!
//! Every execution path runs the method through the engine: the filter
//! is the engine's R-tree window, and `refine_each` validates the
//! candidates into the query's sink.

use crate::area::QueryArea;
use crate::payload::RecordStore;
use crate::stats::QueryStats;
use vaq_geom::Point;

/// The refine step shared by every result sink:
/// materialise the candidate's record (when simulated), validate with the
/// exact containment test, and hand accepted ids — plus the run's stats,
/// for sinks that fold checksums — to `on_hit`. The caller sets
/// `stats.result_size`.
pub(crate) fn refine_each<A: QueryArea + ?Sized>(
    candidates: Vec<u32>,
    points: &[Point],
    area: &A,
    records: Option<&RecordStore>,
    stats: &mut QueryStats,
    mut on_hit: impl FnMut(u32, &mut QueryStats),
) {
    stats.candidates += candidates.len();
    for id in candidates {
        stats.containment_tests += 1;
        if let Some(rs) = records {
            stats.payload_checksum = stats.payload_checksum.wrapping_add(rs.read(id));
        }
        if area.contains(points[id as usize]) {
            stats.accepted += 1;
            on_hit(id, stats);
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::engine::AreaQueryEngine;
    use crate::query::QuerySpec;
    use crate::stats::QueryStats;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use vaq_geom::{Point, Polygon};

    fn p(x: f64, y: f64) -> Point {
        Point::new(x, y)
    }

    fn uniform(n: usize, seed: u64) -> Vec<Point> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| p(rng.gen::<f64>(), rng.gen::<f64>()))
            .collect()
    }

    fn brute(pts: &[Point], area: &Polygon) -> Vec<u32> {
        pts.iter()
            .enumerate()
            .filter(|(_, q)| area.contains(**q))
            .map(|(i, _)| i as u32)
            .collect()
    }

    fn triangle_area() -> Polygon {
        Polygon::new(vec![p(0.2, 0.2), p(0.8, 0.25), p(0.4, 0.9)]).unwrap()
    }

    /// The traditional method through the engine: sorted ids and stats.
    fn traditional(pts: &[Point], area: &Polygon) -> (Vec<u32>, QueryStats) {
        let out = AreaQueryEngine::build(pts).execute(&QuerySpec::traditional(), area);
        let r = out.into_result().expect("collect output");
        (r.sorted_indices(), r.stats)
    }

    #[test]
    fn rtree_filter_matches_brute_force() {
        let pts = uniform(500, 61);
        let area = triangle_area();
        let want = brute(&pts, &area);

        let (got, s) = traditional(&pts, &area);
        assert_eq!(got, want);

        // The candidate set is exactly the points in the MBR.
        let in_mbr = pts
            .iter()
            .filter(|q| area.mbr().contains_point(**q))
            .count();
        assert_eq!(s.candidates, in_mbr);
        assert_eq!(s.accepted, want.len());
        assert_eq!(s.containment_tests, in_mbr as u64);
        assert_eq!(s.redundant_validations(), in_mbr - want.len());
        assert!(s.index.nodes() > 0);
    }

    #[test]
    fn triangle_wastes_at_least_half_of_its_mbr() {
        // The paper's motivating observation: a triangle's area is at most
        // half of its MBR's, so about half the candidates are redundant.
        let pts = uniform(4000, 62);
        let (_, s) = traditional(&pts, &triangle_area());
        assert!(
            s.redundant_validations() * 3 >= s.candidates,
            "expected heavy waste, got {}/{} redundant",
            s.redundant_validations(),
            s.candidates
        );
    }

    #[test]
    fn empty_point_set() {
        let (got, s) = traditional(&[], &triangle_area());
        assert!(got.is_empty());
        assert_eq!(s.candidates, 0);
    }

    #[test]
    fn area_outside_data_extent() {
        let pts = uniform(100, 63);
        let area = Polygon::new(vec![p(5.0, 5.0), p(6.0, 5.0), p(5.5, 6.0)]).unwrap();
        let (got, s) = traditional(&pts, &area);
        assert!(got.is_empty());
        assert_eq!(s.candidates, 0, "MBR misses all data");
    }

    #[test]
    fn boundary_points_are_included() {
        // The area query is over the *closed* region.
        let pts = vec![p(0.5, 0.5), p(0.2, 0.2), p(0.8, 0.25)];
        let area = triangle_area(); // two of the points are its vertices
        let (got, _) = traditional(&pts, &area);
        assert_eq!(got, vec![0, 1, 2]);
    }
}

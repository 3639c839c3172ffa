//! The traditional filter–refine area query the paper compares against.
//!
//! **Filter**: a window query on the R-tree with the MBR of the query area
//! produces the candidate set — every point inside the MBR.
//! **Refine**: each candidate is validated with an exact point-in-polygon
//! test. When the area is irregular (`area(A) ≪ area(MBR(A))`), most
//! candidates fail validation; that waste is what the paper's method
//! removes.

use crate::area::QueryArea;
use crate::payload::RecordStore;
use crate::stats::QueryStats;
use vaq_geom::Point;
use vaq_rtree::RTree;

/// Runs the traditional filter–refine query using the R-tree.
///
/// Returns the matching point ids (input indices, in index-traversal
/// order) and fills `stats`. When `records` is present, every validation
/// first materialises the candidate's payload record (the paper's
/// "geometric information loading"); see [`RecordStore`].
pub fn traditional_area_query<A: QueryArea + ?Sized>(
    rtree: &RTree,
    points: &[Point],
    area: &A,
    records: Option<&RecordStore>,
    stats: &mut QueryStats,
) -> Vec<u32> {
    let mbr = area.mbr();
    let candidates = rtree.window_with_stats(&mbr, &mut stats.index);
    refine(candidates, points, area, records, stats)
}

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

/// Collecting refine: validates every candidate into a result vector.
pub(crate) fn refine<A: QueryArea + ?Sized>(
    candidates: Vec<u32>,
    points: &[Point],
    area: &A,
    records: Option<&RecordStore>,
    stats: &mut QueryStats,
) -> Vec<u32> {
    let mut result = Vec::with_capacity(candidates.len() / 2);
    refine_each(candidates, points, area, records, stats, |id, _| {
        result.push(id)
    });
    stats.result_size = result.len();
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use vaq_geom::Polygon;

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

    #[test]
    fn rtree_filter_matches_brute_force() {
        let pts = uniform(500, 61);
        let area = triangle_area();
        let want = brute(&pts, &area);

        let rt = RTree::bulk_load(&pts);
        let mut s = QueryStats::default();
        let mut got = traditional_area_query(&rt, &pts, &area, None, &mut s);
        got.sort_unstable();
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
        let area = triangle_area();
        let rt = RTree::bulk_load(&pts);
        let mut s = QueryStats::default();
        traditional_area_query(&rt, &pts, &area, None, &mut s);
        assert!(
            s.redundant_validations() * 3 >= s.candidates,
            "expected heavy waste, got {}/{} redundant",
            s.redundant_validations(),
            s.candidates
        );
    }

    #[test]
    fn empty_point_set() {
        let pts: Vec<Point> = Vec::new();
        let rt = RTree::bulk_load(&pts);
        let mut s = QueryStats::default();
        let got = traditional_area_query(&rt, &pts, &triangle_area(), None, &mut s);
        assert!(got.is_empty());
        assert_eq!(s.candidates, 0);
    }

    #[test]
    fn area_outside_data_extent() {
        let pts = uniform(100, 63);
        let area = Polygon::new(vec![p(5.0, 5.0), p(6.0, 5.0), p(5.5, 6.0)]).unwrap();
        let rt = RTree::bulk_load(&pts);
        let mut s = QueryStats::default();
        let got = traditional_area_query(&rt, &pts, &area, None, &mut s);
        assert!(got.is_empty());
        assert_eq!(s.candidates, 0, "MBR misses all data");
    }

    #[test]
    fn boundary_points_are_included() {
        // The area query is over the *closed* region.
        let pts = vec![p(0.5, 0.5), p(0.2, 0.2), p(0.8, 0.25)];
        let area = triangle_area(); // two of the points are its vertices
        let rt = RTree::bulk_load(&pts);
        let mut s = QueryStats::default();
        let mut got = traditional_area_query(&rt, &pts, &area, None, &mut s);
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 2]);
    }
}

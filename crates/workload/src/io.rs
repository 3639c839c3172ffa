//! Plain-text data interchange: CSV point sets and WKT geometries.
//!
//! Enough I/O to run the engine on real data without pulling in a GIS
//! stack: `x,y` CSV for point databases (the common export format of the
//! POI datasets the paper's domain uses) and the WKT `POINT` / `POLYGON`
//! subset for query areas — including holes, which map to
//! [`vaq_geom::Region`].
//!
//! Parsers are strict (they reject rather than guess) and every writer
//! round-trips through its parser in the tests.

use std::fmt::Write as _;
use vaq_geom::{Point, Polygon, Region};

/// Error type for all parsers in this module.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line (CSV) or 0 (single-geometry parsers).
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.line > 0 {
            write!(f, "line {}: {}", self.line, self.message)
        } else {
            write!(f, "{}", self.message)
        }
    }
}

impl std::error::Error for ParseError {}

fn err(line: usize, message: impl Into<String>) -> ParseError {
    ParseError {
        line,
        message: message.into(),
    }
}

/// Parses an `x,y` CSV document into points.
///
/// Exactly two columns per row. Blank lines and `#` comment lines are
/// skipped; an optional `x,y` header (any case) is accepted on the first
/// data line.
pub fn points_from_csv(text: &str) -> Result<Vec<Point>, ParseError> {
    let mut out = Vec::new();
    let mut first_data_line = true;
    for (i, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut cols = line.split(',').map(str::trim);
        let (Some(a), Some(b), None) = (cols.next(), cols.next(), cols.next()) else {
            return Err(err(i + 1, format!("expected two columns, got {line:?}")));
        };
        if first_data_line && a.eq_ignore_ascii_case("x") && b.eq_ignore_ascii_case("y") {
            first_data_line = false;
            continue;
        }
        first_data_line = false;
        let x: f64 = a
            .parse()
            .map_err(|_| err(i + 1, format!("bad x coordinate {a:?}")))?;
        let y: f64 = b
            .parse()
            .map_err(|_| err(i + 1, format!("bad y coordinate {b:?}")))?;
        if !x.is_finite() || !y.is_finite() {
            return Err(err(i + 1, "non-finite coordinate"));
        }
        out.push(Point::new(x, y));
    }
    Ok(out)
}

/// Writes points as `x,y` CSV with a header line.
pub fn points_to_csv(points: &[Point]) -> String {
    let mut s = String::from("x,y\n");
    for p in points {
        let _ = writeln!(s, "{},{}", p.x, p.y);
    }
    s
}

/// Parses a WKT `POINT (x y)`.
pub fn point_from_wkt(text: &str) -> Result<Point, ParseError> {
    let body = tagged_body(text, "POINT")?;
    parse_coord_pair(body.trim())
}

/// Parses a WKT `POLYGON ((x y, …))` — outer ring only.
pub fn polygon_from_wkt(text: &str) -> Result<Polygon, ParseError> {
    let region = region_from_wkt(text)?;
    if !region.holes().is_empty() {
        return Err(err(0, "polygon has interior rings; use region_from_wkt"));
    }
    Ok(region.outer().clone())
}

/// Parses a WKT `POLYGON ((outer), (hole), …)` into a [`Region`].
pub fn region_from_wkt(text: &str) -> Result<Region, ParseError> {
    let body = tagged_body(text, "POLYGON")?;
    let rings = split_rings(body)?;
    if rings.is_empty() {
        return Err(err(0, "POLYGON must have at least one ring"));
    }
    let mut parsed: Vec<Vec<Point>> = Vec::with_capacity(rings.len());
    for ring in rings {
        parsed.push(parse_ring(&ring)?);
    }
    let mut it = parsed.into_iter();
    let outer = it.next().expect("checked non-empty");
    Region::from_rings(outer, it.collect())
        .map_err(|e| err(0, format!("invalid ring geometry: {e}")))
}

/// Writes a polygon as WKT (closing the ring, as WKT requires).
pub fn polygon_to_wkt(poly: &Polygon) -> String {
    let mut s = String::from("POLYGON ((");
    write_ring(&mut s, poly.vertices());
    s.push_str("))");
    s
}

/// Writes a region as WKT with its holes as interior rings.
pub fn region_to_wkt(region: &Region) -> String {
    let mut s = String::from("POLYGON ((");
    write_ring(&mut s, region.outer().vertices());
    s.push(')');
    for hole in region.holes() {
        s.push_str(", (");
        write_ring(&mut s, hole.vertices());
        s.push(')');
    }
    s.push(')');
    s
}

fn write_ring(s: &mut String, vertices: &[Point]) {
    for (i, p) in vertices.iter().chain(vertices.first()).enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(s, "{} {}", p.x, p.y);
    }
}

/// Strips `TAG ( … )`, returning the inside of the outermost parentheses.
fn tagged_body<'a>(text: &'a str, tag: &str) -> Result<&'a str, ParseError> {
    let t = text.trim();
    let upper = t.to_ascii_uppercase();
    if !upper.starts_with(tag) {
        return Err(err(0, format!("expected {tag} geometry, got {t:?}")));
    }
    let rest = t[tag.len()..].trim_start();
    if !rest.starts_with('(') || !rest.ends_with(')') {
        return Err(err(0, format!("{tag} body must be parenthesised")));
    }
    // vaq-lint: allow(panic-hygiene) -- the guard above proves `rest`
    // starts with '(' and ends with ')', both one-byte chars, so the
    // range 1..len-1 is valid for any input that reaches this line.
    Ok(&rest[1..rest.len() - 1])
}

/// Splits `(ring), (ring), …` at depth-zero commas.
fn split_rings(body: &str) -> Result<Vec<String>, ParseError> {
    let mut rings = Vec::new();
    let mut depth = 0usize;
    let mut cur = String::new();
    for ch in body.chars() {
        match ch {
            '(' => {
                depth += 1;
                if depth == 1 {
                    continue; // ring opener is not part of the content
                }
            }
            ')' => {
                depth = depth
                    .checked_sub(1)
                    .ok_or_else(|| err(0, "unbalanced parentheses"))?;
                if depth == 0 {
                    rings.push(std::mem::take(&mut cur));
                    continue;
                }
            }
            ',' if depth == 0 => continue, // separator between rings
            _ => {}
        }
        if depth >= 1 {
            cur.push(ch);
        }
    }
    if depth != 0 {
        return Err(err(0, "unbalanced parentheses"));
    }
    Ok(rings)
}

/// Parses `x y, x y, …`, dropping the WKT closing vertex when present.
fn parse_ring(ring: &str) -> Result<Vec<Point>, ParseError> {
    let mut pts = Vec::new();
    for pair in ring.split(',') {
        pts.push(parse_coord_pair(pair.trim())?);
    }
    if pts.len() >= 2 && pts.first() == pts.last() {
        pts.pop(); // WKT rings repeat the first vertex; Polygon does not.
    }
    Ok(pts)
}

fn parse_coord_pair(pair: &str) -> Result<Point, ParseError> {
    let mut it = pair.split_whitespace();
    let (Some(a), Some(b), None) = (it.next(), it.next(), it.next()) else {
        return Err(err(0, format!("expected 'x y', got {pair:?}")));
    };
    let x: f64 = a
        .parse()
        .map_err(|_| err(0, format!("bad coordinate {a:?}")))?;
    let y: f64 = b
        .parse()
        .map_err(|_| err(0, format!("bad coordinate {b:?}")))?;
    if !x.is_finite() || !y.is_finite() {
        return Err(err(0, "non-finite coordinate"));
    }
    Ok(Point::new(x, y))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_round_trip() {
        let pts = vec![
            Point::new(0.5, 1.5),
            Point::new(-3.25, 0.0),
            Point::new(1e-9, 2e9),
        ];
        let csv = points_to_csv(&pts);
        assert_eq!(points_from_csv(&csv).unwrap(), pts);
    }

    #[test]
    fn csv_accepts_comments_blanks_and_header() {
        let text = "# a comment\n\nx,y\n1.0, 2.0\n# another\n3,4\n";
        let pts = points_from_csv(text).unwrap();
        assert_eq!(pts, vec![Point::new(1.0, 2.0), Point::new(3.0, 4.0)]);
    }

    #[test]
    fn csv_rejects_malformed_rows() {
        assert!(points_from_csv("1.0\n").is_err());
        assert!(points_from_csv("1.0,2.0,3.0\n").is_err());
        assert!(points_from_csv("1.0,abc\n").is_err());
        let e = points_from_csv("1,2\nNaN,0\n").unwrap_err();
        assert_eq!(e.line, 2);
    }

    #[test]
    fn wkt_point() {
        assert_eq!(
            point_from_wkt("POINT (3.5 -2)").unwrap(),
            Point::new(3.5, -2.0)
        );
        assert_eq!(point_from_wkt("point(0 0)").unwrap(), Point::new(0.0, 0.0));
        assert!(point_from_wkt("POINT (1)").is_err());
        assert!(point_from_wkt("LINESTRING (0 0, 1 1)").is_err());
    }

    #[test]
    fn wkt_polygon_round_trip() {
        let poly = Polygon::new(vec![
            Point::new(0.0, 0.0),
            Point::new(4.0, 0.0),
            Point::new(4.0, 3.0),
            Point::new(0.0, 3.0),
        ])
        .unwrap();
        let wkt = polygon_to_wkt(&poly);
        assert_eq!(wkt, "POLYGON ((0 0, 4 0, 4 3, 0 3, 0 0))");
        let back = polygon_from_wkt(&wkt).unwrap();
        assert_eq!(back.vertices(), poly.vertices());
    }

    #[test]
    fn wkt_polygon_without_closing_vertex_accepted() {
        let poly = polygon_from_wkt("POLYGON ((0 0, 1 0, 0 1))").unwrap();
        assert_eq!(poly.len(), 3);
    }

    #[test]
    fn wkt_region_with_holes_round_trip() {
        let region = Region::from_rings(
            vec![
                Point::new(0.0, 0.0),
                Point::new(10.0, 0.0),
                Point::new(10.0, 10.0),
                Point::new(0.0, 10.0),
            ],
            vec![vec![
                Point::new(2.0, 2.0),
                Point::new(4.0, 2.0),
                Point::new(4.0, 4.0),
                Point::new(2.0, 4.0),
            ]],
        )
        .unwrap();
        let wkt = region_to_wkt(&region);
        let back = region_from_wkt(&wkt).unwrap();
        assert_eq!(back.outer().vertices(), region.outer().vertices());
        assert_eq!(back.holes().len(), 1);
        assert_eq!(back.holes()[0].vertices(), region.holes()[0].vertices());
        // A holed WKT is rejected by the plain-polygon parser.
        assert!(polygon_from_wkt(&wkt).is_err());
    }

    #[test]
    fn wkt_rejects_garbage() {
        assert!(
            region_from_wkt("POLYGON (0 0, 1 1)").is_err(),
            "ring without parens"
        );
        assert!(region_from_wkt("POLYGON ((0 0, 1 1)").is_err());
        assert!(region_from_wkt("POLYGON ()").is_err());
        assert!(region_from_wkt("POLYGON ((0 0, 1 0, zero one))").is_err());
        // Degenerate ring (all collinear) is a geometry error.
        assert!(region_from_wkt("POLYGON ((0 0, 1 1, 2 2))").is_err());
    }

    #[test]
    fn engine_runs_on_wkt_loaded_data() {
        use vaq_core::{AreaQueryEngine, QuerySpec};
        let csv = "x,y\n0.1,0.1\n0.9,0.1\n0.5,0.9\n0.5,0.4\n";
        let pts = points_from_csv(csv).unwrap();
        let engine = AreaQueryEngine::build(&pts);
        let area = polygon_from_wkt("POLYGON ((0 0, 1 0, 0.5 0.7))").unwrap();
        let ids = |spec: QuerySpec| {
            engine
                .execute(&spec, &area)
                .result()
                .unwrap()
                .sorted_indices()
        };
        let got = ids(QuerySpec::voronoi());
        assert_eq!(got, ids(QuerySpec::traditional()));
        assert!(got.contains(&3), "the centre point is inside");
    }
}

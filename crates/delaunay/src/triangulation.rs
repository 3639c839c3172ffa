//! Incremental Delaunay triangulation: Bowyer–Watson insertion with ghost
//! triangles, Hilbert-ranked vertex ids inserted in id order, and a
//! stochastic remembering walk that locates each new point.
//!
//! # Algorithm
//!
//! * **Ghost triangles** close the build mesh: every hull edge `a→b` (CCW,
//!   region on its left) has a ghost triangle on the reversed edge `b→a`
//!   whose third vertex is a symbolic vertex at infinity. Point location
//!   and cavity carving then need no boundary cases; inserting outside the
//!   hull is the same code path as inserting inside.
//! * **Bowyer–Watson**: each insertion locates the triangle whose (possibly
//!   ghost) circumdisk contains the new point, grows the *cavity* of all
//!   such triangles by breadth-first search, deletes it, and re-triangulates
//!   by fanning the new vertex to the cavity boundary.
//! * **The graph, not the mesh**: once every point is inserted, the build
//!   derives the Voronoi-neighbour adjacency (CSR), the hull, the hidden
//!   sites and their anchors from the mesh, and drops the mesh. A built
//!   [`Triangulation`] is the Voronoi graph alone — the one oracle the
//!   paper's Algorithm 1 reads.
//! * **Robustness**: all orientation and in-circle decisions go through the
//!   adaptive exact predicates in [`vaq_geom::predicates`], so the structure
//!   is correct even for the cocircular / collinear degeneracies that grid
//!   data produces. Inputs that are *entirely* collinear (including n = 1, 2)
//!   cannot be triangulated; they fall back to a **degenerate path mode** in
//!   which the Delaunay graph is the sorted path along the line — the
//!   correct limit of the Voronoi adjacency.
//! * **Vertex ids are Hilbert ranks** ([`rank_sites`]): coincident inputs
//!   merge onto one canonical vertex, and the vertices are inserted in id
//!   order. [`Triangulation::canonical`] maps an input index to its
//!   vertex and [`Triangulation::inputs_of`] maps back.
//! * **Weights are data**: the weights are one more flat array, empty for
//!   the Euclidean diagram. Building with non-uniform site weights via
//!   [`Triangulation::with_site_metric`] produces the **regular
//!   triangulation** (dual of the power diagram) instead, using the exact
//!   [`power_incircle`] conflict predicate; uniform weights normalise to
//!   the empty vector. Weighted sites may be *hidden* — dominated
//!   everywhere, owning no cell and no Delaunay vertex; they are reported
//!   by [`Triangulation::hidden_vertices`] and every hidden site carries a
//!   live *anchor* so graph walks never stall on it.

use crate::flat::TriangulationFlat;
use crate::hilbert::rank_sites;
use crate::mesh::{Mesh, GHOST, NONE};
use crate::metric::{weights_are_uniform, DiagramKind};
use vaq_geom::{incircle, orient2d, power_incircle, Point};

/// Errors from [`Triangulation::new`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DelaunayError {
    /// The input point slice was empty.
    EmptyInput,
    /// A coordinate was NaN or infinite; payload is the input index.
    NonFiniteCoordinate(usize),
    /// A site weight was NaN or infinite; payload is the input index.
    NonFiniteWeight(usize),
    /// The weight slice length did not match the point slice length.
    WeightCountMismatch {
        /// Number of points supplied.
        expected: usize,
        /// Number of weights supplied.
        got: usize,
    },
}

impl std::fmt::Display for DelaunayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DelaunayError::EmptyInput => write!(f, "cannot triangulate an empty point set"),
            DelaunayError::NonFiniteCoordinate(i) => {
                write!(f, "point at input index {i} has a non-finite coordinate")
            }
            DelaunayError::NonFiniteWeight(i) => {
                write!(f, "weight at input index {i} is not finite")
            }
            DelaunayError::WeightCountMismatch { expected, got } => {
                write!(f, "expected {expected} weights (one per point), got {got}")
            }
        }
    }
}

impl std::error::Error for DelaunayError {}

/// Where the build-time walk found a new point.
#[derive(Clone, Copy)]
enum Locate {
    /// The point coincides exactly with an inserted vertex.
    Vertex,
    /// The point lies inside (or on the boundary of) this finite triangle.
    Face(u32),
    /// The point lies strictly outside the convex hull; payload is a ghost
    /// triangle whose hull edge faces the point.
    Outside(u32),
}

/// A cavity-boundary edge recorded during Bowyer–Watson carving.
#[derive(Clone, Copy)]
struct BoundaryEdge {
    /// Directed edge `(a, b)` with the cavity (and the new point) on its left.
    a: u32,
    b: u32,
    /// The surviving triangle on the outside of the edge.
    outer: u32,
}

/// xorshift64* step; cheap deterministic randomness for the stochastic walk.
#[inline]
fn next_rand(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

/// Internal construction state shared by the walk and insertion routines.
struct Core {
    pts: Vec<Point>,
    /// Canonical site weights; empty for an unweighted (Euclidean) build.
    w: Vec<f64>,
    mesh: Mesh,
    /// Per-slot visit stamps for cavity BFS (avoids clearing a bitmap).
    stamps: Vec<u32>,
    epoch: u32,
    /// A live finite triangle used as the walk start hint.
    last_finite: u32,
    rng: u64,
    /// Scratch buffers reused across insertions.
    stack: Vec<u32>,
    bad: Vec<u32>,
    boundary: Vec<BoundaryEdge>,
    new_tris: Vec<(u32, u32, u32)>, // (a, triangle id, b) per boundary edge
}

impl Core {
    /// `true` when triangle `t` is in conflict with the new site `(p, pw)`:
    /// its (possibly ghost) circumdisk strictly contains `p` in the
    /// unweighted case, or `(p, pw)` beats its orthocircle in the weighted
    /// case. `pw` is ignored for unweighted builds.
    fn is_bad(&self, t: u32, p: Point, pw: f64) -> bool {
        let tri = self.mesh.tri(t);
        match tri.ghost_slot() {
            None => {
                let [i, j, k] = tri.v;
                let a = self.pts[i as usize];
                let b = self.pts[j as usize];
                let c = self.pts[k as usize];
                if self.w.is_empty() {
                    incircle(a, b, c, p) > 0.0
                } else {
                    power_incircle(
                        a,
                        b,
                        c,
                        p,
                        self.w[i as usize],
                        self.w[j as usize],
                        self.w[k as usize],
                        pw,
                    ) > 0.0
                }
            }
            Some(g) => {
                // Ghost circumdisk = open half-plane strictly left of the
                // reversed hull edge (u, v), plus the open edge itself.
                let u = self.pts[tri.v[(g + 1) % 3] as usize];
                let v = self.pts[tri.v[(g + 2) % 3] as usize];
                let o = orient2d(u, v, p);
                if o != 0.0 {
                    // Strictly outside the hull across this edge: the site
                    // is extreme in that direction, hence live, and the
                    // ghost conflicts regardless of weights.
                    return o > 0.0;
                }
                let d = v - u;
                let on_open_edge = (p - u).dot(d) > 0.0 && (v - p).dot(d) > 0.0;
                if !on_open_edge {
                    return false;
                }
                if self.w.is_empty() {
                    return true;
                }
                // Weighted on-edge case: a site exactly on the open hull
                // edge is live iff its lifted point lies strictly below the
                // lifted edge, which equals the finite neighbour's lifted
                // plane restricted to the edge — so the ghost conflicts iff
                // the finite triangle behind the hull edge does. (In the
                // Euclidean case that triangle is always in conflict, so
                // this degenerates to the unconditional `true` above.)
                self.is_bad(tri.n[g], p, pw)
            }
        }
    }

    /// Stochastic remembering walk from `start` (a live finite triangle).
    fn walk(&mut self, p: Point, start: u32) -> Locate {
        let mut t = start;
        let mut prev = NONE;
        // With exact predicates the stochastic walk terminates with
        // probability 1; the cap only guards against an implementation bug.
        let max_steps = 4 * self.mesh.slots() + 64;
        for _ in 0..max_steps {
            let tri = *self.mesh.tri(t);
            if tri.is_ghost() {
                // Check for coincidence with the hull vertices first.
                let g = tri.ghost_slot().expect("is_ghost");
                for k in 1..3 {
                    let w = tri.v[(g + k) % 3];
                    if self.pts[w as usize] == p {
                        return Locate::Vertex;
                    }
                }
                return Locate::Outside(t);
            }
            let r = (next_rand(&mut self.rng) % 3) as usize;
            let mut next = NONE;
            for k in 0..3 {
                let i = (r + k) % 3;
                if tri.n[i] == prev {
                    continue;
                }
                let (a, b) = tri.edge(i);
                if orient2d(self.pts[a as usize], self.pts[b as usize], p) < 0.0 {
                    next = tri.n[i];
                    break;
                }
            }
            if next == NONE {
                if tri.v.iter().any(|&v| self.pts[v as usize] == p) {
                    return Locate::Vertex;
                }
                return Locate::Face(t);
            }
            prev = t;
            t = next;
        }
        // vaq-lint: allow(panic-hygiene) -- the walk over a consistent
        // mesh strictly approaches `p` (each step crosses an edge whose
        // far side contains it); non-termination means the neighbour
        // links are corrupt, which no error value could repair.
        unreachable!("point-location walk failed to terminate (mesh corrupt?)");
    }

    /// Inserts vertex `vid` (coordinates already in `pts`) after locating
    /// its containing region. In a weighted build a located site whose
    /// region is **not** in power conflict is *hidden* — its lifted point
    /// lies on or above the current lower hull — and is skipped entirely
    /// (it owns no cell; hiding is monotone under later insertions, so the
    /// decision is final).
    fn insert_in_cavity(&mut self, vid: u32, p: Point) {
        let pw = if self.w.is_empty() {
            0.0
        } else {
            self.w[vid as usize]
        };
        let seed = match self.walk(p, self.last_finite) {
            Locate::Vertex => {
                // Duplicates are merged before insertion; tolerate anyway.
                debug_assert!(false, "duplicate point reached insertion");
                return;
            }
            Locate::Face(t) | Locate::Outside(t) => t,
        };

        // Hidden-at-insert check (weighted only: an unweighted located
        // region always strictly contains the new point in its circumdisk,
        // and an `Outside` ghost seed conflicts by orientation alone).
        if !self.w.is_empty() && !self.is_bad(seed, p, pw) {
            return;
        }

        // Grow the cavity of strictly-bad triangles by BFS from the seed.
        self.epoch += 1;
        let epoch = self.epoch;
        self.stamps.resize(self.mesh.slots(), 0);
        self.stack.clear();
        self.bad.clear();
        self.boundary.clear();
        self.stamps[seed as usize] = epoch;
        self.stack.push(seed);
        while let Some(t) = self.stack.pop() {
            self.bad.push(t);
            let tri = *self.mesh.tri(t);
            for i in 0..3 {
                let nb = tri.n[i];
                if self.stamps[nb as usize] == epoch {
                    continue;
                }
                if self.is_bad(nb, p, pw) {
                    self.stamps[nb as usize] = epoch;
                    self.stack.push(nb);
                } else {
                    let (a, b) = tri.edge(i);
                    self.boundary.push(BoundaryEdge { a, b, outer: nb });
                }
            }
        }

        // Delete the cavity; its slots are recycled by the fan below.
        for k in 0..self.bad.len() {
            let t = self.bad[k];
            self.mesh.release(t);
        }

        // Fan the new vertex to every boundary edge. Each new triangle is
        // (a, b, vid): CCW when finite (the cavity, hence vid, lies on the
        // left of (a, b)); ghosts (a or b == GHOST) keep the convention that
        // the finite cyclic edge is the reversed hull edge.
        self.new_tris.clear();
        let mut finite_example = NONE;
        for k in 0..self.boundary.len() {
            let e = self.boundary[k];
            let t = self.mesh.alloc([e.a, e.b, vid]);
            if e.a != GHOST && e.b != GHOST {
                finite_example = t;
            }
            self.new_tris.push((e.a, t, e.b));
        }
        self.stamps.resize(self.mesh.slots(), 0);

        // Link each new triangle to the outside survivor and to its two
        // siblings around vid. The cavity boundary is a single cycle, so the
        // sibling starting at `b` is unique; the boundary is small (typically
        // < 10 edges) so a linear scan beats hashing.
        for k in 0..self.boundary.len() {
            let e = self.boundary[k];
            let (_, t, b) = self.new_tris[k];
            self.mesh.link(t, 2, e.outer);
            let next = self
                .new_tris
                .iter()
                .find(|&&(a2, _, _)| a2 == b)
                .map(|&(_, t2, _)| t2)
                .expect("cavity boundary is a closed cycle");
            // Edge (b, vid) is opposite slot 0 of t; the reversed edge
            // (vid, b) is opposite slot 1 of the sibling.
            // vaq-lint: allow(panic-hygiene) -- `n` is a fixed [u32; 3];
            // constant in-bounds indexing cannot panic.
            self.mesh.tri_mut(t).n[0] = next;
            // vaq-lint: allow(panic-hygiene) -- same fixed-array slot
            // write as the line above.
            self.mesh.tri_mut(next).n[1] = t;
        }

        debug_assert!(
            finite_example != NONE,
            "insertion created no finite triangle"
        );
        self.last_finite = finite_example;
    }
}

/// An immutable Delaunay (or regular) triangulation, kept as its
/// Voronoi-neighbour adjacency (the paper's `VN(P, p)` oracle).
///
/// Build once with [`Triangulation::new`] (Euclidean) or
/// [`Triangulation::with_site_metric`] (possibly weighted); query
/// adjacency, the hull and nearest vertices afterwards. The triangle mesh
/// the build works on is dropped once the adjacency is derived from it.
/// Input points may contain exact duplicates — they are merged into
/// canonical vertices, with both directions of the mapping exposed.
///
/// The structure is its flat arrays ([`TriangulationFlat`]), borrowed
/// whole by [`Triangulation::as_flat`]. The weights are one of them:
/// empty for the Euclidean diagram, one per canonical vertex for a power
/// diagram.
pub struct Triangulation {
    /// Private, so every triangulation either came from a build or
    /// passed [`Triangulation::from_flat`]'s checks.
    flat: TriangulationFlat,
}

/// Shared input validation for all constructors.
fn validate_points(points: &[Point]) -> Result<(), DelaunayError> {
    if points.is_empty() {
        return Err(DelaunayError::EmptyInput);
    }
    if let Some(i) = points.iter().position(|p| !p.is_finite()) {
        return Err(DelaunayError::NonFiniteCoordinate(i));
    }
    Ok(())
}

impl Triangulation {
    /// Builds the Delaunay triangulation of `points` with Hilbert-ordered
    /// insertion.
    ///
    /// # Errors
    ///
    /// [`DelaunayError::EmptyInput`] for an empty slice and
    /// [`DelaunayError::NonFiniteCoordinate`] if any coordinate is NaN or
    /// infinite. Collinear input (including 1 or 2 points) is *not* an
    /// error; it produces a triangulation in degenerate path mode (see
    /// [`Triangulation::is_degenerate`]).
    pub fn new(points: &[Point]) -> Result<Triangulation, DelaunayError> {
        validate_points(points)?;
        Ok(build(points, None))
    }

    /// Builds the triangulation of optionally weighted sites: unweighted
    /// (`weights == None`) or a regular triangulation of the weighted
    /// sites, with Hilbert-ordered insertion. Whether a dataset carries
    /// weights is a property of the input, decided at run time.
    ///
    /// **Uniform weights normalize away**: if every weight is equal
    /// (including the all-zero case), a uniform shift cancels out of every
    /// power comparison, so the build delegates to the Euclidean path and
    /// the result — including [`Triangulation::diagram_kind`] — is
    /// bit-identical to an unweighted build.
    ///
    /// Coincident input sites collapse onto one canonical vertex carrying
    /// the **maximum** weight of the group (the heavier site dominates the
    /// lighter ones everywhere).
    ///
    /// # Errors
    ///
    /// As [`Triangulation::new`], plus
    /// [`DelaunayError::WeightCountMismatch`] if the weight slice length
    /// differs from the point count and [`DelaunayError::NonFiniteWeight`]
    /// if any weight is NaN or infinite.
    pub fn with_site_metric(
        points: &[Point],
        weights: Option<&[f64]>,
    ) -> Result<Triangulation, DelaunayError> {
        validate_points(points)?;
        if let Some(w) = weights {
            if w.len() != points.len() {
                return Err(DelaunayError::WeightCountMismatch {
                    expected: points.len(),
                    got: w.len(),
                });
            }
            if let Some(i) = w.iter().position(|x| !x.is_finite()) {
                return Err(DelaunayError::NonFiniteWeight(i));
            }
        }
        Ok(build(points, weights.filter(|w| !weights_are_uniform(w))))
    }

    /// Borrows the flat arrays the triangulation is made of — what a
    /// snapshot stores. The inverse of [`Triangulation::from_flat`]:
    /// `from_flat(tri.as_flat().clone())` rebuilds a bit-identical
    /// structure (same canonical ids, same adjacency rows, hull, hidden
    /// sites and anchors).
    #[inline]
    pub fn as_flat(&self) -> &TriangulationFlat {
        &self.flat
    }

    /// Rebuilds a triangulation from its flat representation, validating
    /// the cross-array invariants (bounds, CSR monotonicity, hidden and
    /// anchor tables) without re-running any geometry. Empty `weights`
    /// is the Euclidean diagram; otherwise one weight per canonical
    /// vertex is the power diagram.
    ///
    /// # Errors
    ///
    /// A human-readable message naming the first inconsistency. The
    /// checks are structural (index bounds, offsets, finiteness), not
    /// geometric — a snapshot's section checksum is what vouches for the
    /// payload bytes; this guards against a *consistent but wrong* file
    /// turning into out-of-bounds panics at query time.
    pub fn from_flat(flat: TriangulationFlat) -> Result<Triangulation, String> {
        let n = flat.pts.len();
        if n == 0 {
            return Err("empty vertex set".into());
        }
        if let Some(i) = flat.pts.iter().position(|p| !p.is_finite()) {
            return Err(format!("vertex {i} has a non-finite coordinate"));
        }
        let nu = n as u32;
        if flat.canon.is_empty() || flat.canon.iter().any(|&c| c >= nu) {
            return Err("canonical map empty or out of bounds".into());
        }
        check_csr("members", &flat.members_off, &flat.members, n)?;
        if flat.members.len() != flat.canon.len()
            || flat.members.iter().any(|&i| i as usize >= flat.canon.len())
        {
            return Err("members CSR does not cover the input indices".into());
        }
        check_csr("adjacency", &flat.adj_off, &flat.adj, n)?;
        if flat.adj.iter().any(|&v| v >= nu) {
            return Err("adjacency entry out of bounds".into());
        }
        if flat.hull.iter().any(|&v| v >= nu) {
            return Err("hull vertex out of bounds".into());
        }
        if !flat.weights.is_empty() && flat.weights.len() != n {
            return Err(format!(
                "{} weights for {n} canonical vertices",
                flat.weights.len()
            ));
        }
        if let Some(i) = flat.weights.iter().position(|w| !w.is_finite()) {
            return Err(format!("weight {i} is not finite"));
        }
        // vaq-lint: allow(panic-hygiene) -- windows(2) yields exactly two elements
        if flat.hidden.windows(2).any(|w| w[0] >= w[1]) || flat.hidden.iter().any(|&v| v >= nu) {
            return Err("hidden list not strictly ascending in bounds".into());
        }
        if !flat.hidden.is_empty() && flat.weights.is_empty() {
            return Err("hidden sites on an unweighted structure".into());
        }
        if flat.anchor.len() != flat.hidden.len() {
            return Err("anchor table is not parallel to the hidden list".into());
        }
        // A hidden anchor would stall every walk seeded through it.
        if flat
            .anchor
            .iter()
            .any(|&v| v >= nu || flat.hidden.binary_search(&v).is_ok())
        {
            return Err("anchor out of bounds or hidden".into());
        }
        Ok(Triangulation { flat })
    }
}

/// Validates one CSR pair: `off` has `rows + 1` monotone entries and the
/// last one equals the payload length.
fn check_csr(what: &str, off: &[u32], payload: &[u32], rows: usize) -> Result<(), String> {
    if off.len() != rows + 1 {
        return Err(format!(
            "{what} CSR has {} offsets for {rows} rows",
            off.len()
        ));
    }
    // vaq-lint: allow(panic-hygiene) -- off has rows + 1 >= 1 entries (checked above)
    if off[0] != 0 || off.windows(2).any(|w| w[0] > w[1]) {
        return Err(format!("{what} CSR offsets are not monotone from zero"));
    }
    if off[rows] as usize != payload.len() {
        return Err(format!(
            "{what} CSR covers {} entries but payload has {}",
            off[rows],
            payload.len()
        ));
    }
    Ok(())
}

/// Runs the incremental build and assembles the triangulation; the build
/// mesh is dropped here.
///
/// `weights` is `None` for Euclidean builds and `Some` only for genuinely
/// non-uniform weights (the constructors normalize uniform inputs away).
fn build(points: &[Point], weights: Option<&[f64]>) -> Triangulation {
    build_with_mesh(points, weights).0
}

/// [`build`] plus the closed triangle mesh the triangulation was derived
/// from (empty in degenerate path mode). Only the structural tests keep
/// the mesh.
fn build_with_mesh(points: &[Point], weights: Option<&[f64]>) -> (Triangulation, Mesh) {
    let (pts, canon, members_off, members) = rank_sites(points);

    // Canonical weights: coincident inputs collapse to the max weight of
    // the group (a coincident lighter site is dominated everywhere by the
    // heavier one, so only the max can own the shared cell).
    let cw: Vec<f64> = match weights {
        None => Vec::new(),
        Some(w) => {
            let mut cw = vec![f64::NEG_INFINITY; pts.len()];
            for (i, &wi) in w.iter().enumerate() {
                let c = canon[i] as usize;
                if wi > cw[c] {
                    cw[c] = wi;
                }
            }
            cw
        }
    };

    // Vertices are inserted in id order, which is Hilbert order. The
    // first triangle is vertices 0 and 1 plus the first vertex after
    // them not collinear with them. If none exists the whole input is
    // collinear → degenerate path mode.
    let tri0 = match pts.as_slice() {
        [a, b, ..] => (2..pts.len() as u32)
            .find(|&i2| orient2d(*a, *b, pts[i2 as usize]) != 0.0)
            .map(|i2| (0, 1, i2)),
        _ => None,
    };

    let Some((i0, i1, i2)) = tri0 else {
        let flat = collinear_parts(pts, canon, members_off, members, cw);
        return (Triangulation { flat }, Mesh::new());
    };

    // Orient the seed triangle CCW.
    let (i0, i1) = if orient2d(pts[i0 as usize], pts[i1 as usize], pts[i2 as usize]) < 0.0 {
        (i1, i0)
    } else {
        (i0, i1)
    };
    debug_assert!(orient2d(pts[i0 as usize], pts[i1 as usize], pts[i2 as usize]) > 0.0);

    let mut core = Core {
        mesh: Mesh::with_capacity(2 * pts.len() + 16),
        pts,
        w: cw,
        stamps: Vec::new(),
        epoch: 0,
        last_finite: 0,
        rng: 0x9E37_79B9_7F4A_7C15,
        stack: Vec::new(),
        bad: Vec::new(),
        boundary: Vec::new(),
        new_tris: Vec::new(),
    };

    // Seed triangle plus its three ghosts.
    let t = core.mesh.alloc([i0, i1, i2]);
    let g01 = core.mesh.alloc([i1, i0, GHOST]);
    let g12 = core.mesh.alloc([i2, i1, GHOST]);
    let g20 = core.mesh.alloc([i0, i2, GHOST]);
    core.mesh.link(t, 2, g01); // edge (i0,i1) ↔ ghost (i1,i0)
    core.mesh.link(t, 0, g12); // edge (i1,i2) ↔ ghost (i2,i1)
    core.mesh.link(t, 1, g20); // edge (i2,i0) ↔ ghost (i0,i2)
                               // Ghost-to-ghost links around the hull: ghosts share GHOST-incident
                               // edges. Ghost (i1,i0,G): edge (i0,G) is shared with ghost (i0,i2,G)
                               // whose edge (G,i0) matches reversed, etc.
    core.mesh.link(g01, 0, g20); // (i0,G) ↔ (G,i0)
    core.mesh.link(g01, 1, g12); // (G,i1) ↔ (i1,G)
    core.mesh.link(g12, 0, g01); // redundant with previous, harmless
    core.mesh.link(g12, 1, g20); // (G,i2) ↔ (i2,G)
    core.mesh.link(g20, 0, g12);
    core.mesh.link(g20, 1, g01);
    debug_assert_eq!(core.mesh.check_links(), Ok(()));
    core.last_finite = t;

    for v in 0..core.pts.len() as u32 {
        if v == i0 || v == i1 || v == i2 {
            continue;
        }
        let p = core.pts[v as usize];
        core.insert_in_cavity(v, p);
    }

    let (adj_off, adj) = build_adjacency(&core.mesh, core.pts.len());
    let hull = extract_hull(&core.mesh);

    // Hidden sites are exactly the vertices absent from the final mesh:
    // skipped at insertion, or inserted and later swallowed by a cavity.
    // Both leave an empty adjacency row. (Unweighted builds never hide a
    // vertex, so the scan is skipped and `hidden` stays empty.)
    let hidden: Vec<u32> = if core.w.is_empty() {
        Vec::new()
    } else {
        (0..core.pts.len() as u32)
            .filter(|&v| adj_off[v as usize] == adj_off[v as usize + 1])
            .collect()
    };
    // Any hull vertex is live (a site whose projection is a hull vertex
    // is always a lower-hull vertex), so the first descent may start at
    // one; the hull of a non-degenerate build is never empty.
    let start = hull.first().copied().unwrap_or_default();
    let (anchor, _) = anchor_hidden(&core.pts, &adj_off, &adj, &core.w, &hidden, start);

    let flat = TriangulationFlat {
        pts: core.pts,
        canon,
        members_off,
        members,
        adj_off,
        adj,
        hull,
        degenerate: false,
        weights: core.w,
        hidden,
        anchor,
    };
    (Triangulation { flat }, core.mesh)
}

/// Gives each hidden site its anchor: a live vertex of least power
/// distance, found by [`power_descent`]. Hidden ids ascend in Hilbert
/// order, so each descent starts at the previous hidden site's anchor
/// (the first at the live `start`) and takes a few steps, not a walk
/// across the diagram. Returns the anchors, parallel to `hidden`, and the
/// total number of vertices the descents visited.
fn anchor_hidden(
    pts: &[Point],
    adj_off: &[u32],
    adj: &[u32],
    w: &[f64],
    hidden: &[u32],
    start: u32,
) -> (Vec<u32>, usize) {
    let mut from = start;
    let mut steps = 0;
    let anchor = hidden
        .iter()
        .map(|&h| {
            let (a, visited) = power_descent(pts, adj_off, adj, w, pts[h as usize], from);
            steps += visited;
            from = a;
            a
        })
        .collect();
    (anchor, steps)
}

/// Greedy power-distance descent over the CSR adjacency from a **live**
/// start vertex; returns a live vertex of minimum power distance to `q`
/// and the number of vertices visited.
///
/// The power-diagram analogue of the nearest-vertex walk: a live site that
/// does not minimise the power distance to `q` always has a cell-adjacent
/// (hence graph-adjacent) live neighbour of strictly smaller power
/// distance, so the descent cannot stall, and the strictly decreasing key
/// guarantees termination.
fn power_descent(
    pts: &[Point],
    adj_off: &[u32],
    adj: &[u32],
    w: &[f64],
    q: Point,
    start: u32,
) -> (u32, usize) {
    let mut v = start;
    let mut dv = pts[v as usize].dist_sq(q) - w[v as usize];
    let mut visited = 1;
    loop {
        let mut best = v;
        let mut bd = dv;
        let lo = adj_off[v as usize] as usize;
        let hi = adj_off[v as usize + 1] as usize;
        for &u in &adj[lo..hi] {
            let d = pts[u as usize].dist_sq(q) - w[u as usize];
            if d < bd {
                bd = d;
                best = u;
            }
        }
        if best == v {
            return (v, visited);
        }
        v = best;
        dv = bd;
        visited += 1;
    }
}

/// Builds the degenerate structure of an entirely collinear point set:
/// the Voronoi (or power) diagram along the line, whose adjacency is the
/// path through the sites that own a cell, in order along the line.
///
/// Without weights (`cw` empty) every site owns a cell, so the path runs
/// through all of them. With weights, restricted to a line, the power
/// distance of site `i` at parameter `t` is `(t − tᵢ)² − wᵢ`; a site owns
/// a 1-D cell iff its lifted point `(tᵢ, tᵢ² − wᵢ)` is a vertex of the
/// **lower convex hull** of all lifted points — the 1-D instance of the
/// same lifting that defines the regular triangulation. We use the scaled
/// parameter `s = (p − o)·d` (with `d` the direction between the
/// lexicographic extremes) and lift `z = s² − |d|²·w`; positive affine
/// scalings of both axes preserve lower-hull membership, so no square
/// roots are needed. The hull scan keeps strict turns only: a lifted
/// point exactly *on* a hull edge owns a zero-length cell and counts as
/// hidden, matching the strict-conflict convention of the 2-D build. `s`
/// and `z` round like any float dot product; the turn tests on the
/// rounded lifts are exact (`orient2d`).
fn collinear_parts(
    pts: Vec<Point>,
    canon: Vec<u32>,
    members_off: Vec<u32>,
    members: Vec<u32>,
    cw: Vec<f64>,
) -> TriangulationFlat {
    let n = pts.len();
    let mut order: Vec<u32> = (0..n as u32).collect();
    // Lexicographic order equals order along any line.
    order.sort_by(|&a, &b| pts[a as usize].cmp_lex(&pts[b as usize]));

    let live: Vec<u32> = if cw.is_empty() || n == 1 {
        order
    } else {
        // vaq-lint: allow(panic-hygiene) -- this branch has n >= 2 (a
        // single site takes the branch above), so `order` is non-empty.
        let o = pts[order[0] as usize];
        let d = pts[order[n - 1] as usize] - o;
        let dd = d.dot(d);
        let lifted: Vec<Point> = order
            .iter()
            .map(|&v| {
                let s = (pts[v as usize] - o).dot(d);
                Point::new(s, s * s - dd * cw[v as usize])
            })
            .collect();
        // Monotone-chain lower hull over the lifted points (already sorted
        // by s), strict turns only.
        let mut stack: Vec<usize> = Vec::new();
        for k in 0..n {
            // Exactly equal parameters can only arise from rounding of
            // distinct collinear points; keep the lower lift, which
            // dominates the other on the line.
            if let Some(&top) = stack.last() {
                if lifted[k].x == lifted[top].x {
                    if lifted[k].y >= lifted[top].y {
                        continue;
                    }
                    stack.pop();
                }
            }
            while stack.len() >= 2 {
                let a = lifted[stack[stack.len() - 2]];
                let b = lifted[stack[stack.len() - 1]];
                if orient2d(a, b, lifted[k]) <= 0.0 {
                    stack.pop();
                } else {
                    break;
                }
            }
            stack.push(k);
        }
        stack.iter().map(|&k| order[k]).collect()
    };

    // Path adjacency over the live sites only.
    let mut is_live = vec![false; n];
    for &v in &live {
        is_live[v as usize] = true;
    }
    let mut deg = vec![0u32; n];
    for pair in live.windows(2) {
        // vaq-lint: allow(panic-hygiene) -- windows(2) yields exactly
        // two elements per slice.
        let (a, b) = (pair[0], pair[1]);
        deg[a as usize] += 1;
        deg[b as usize] += 1;
    }
    let mut adj_off = vec![0u32; n + 1];
    for v in 0..n {
        adj_off[v + 1] = adj_off[v] + deg[v];
    }
    let mut adj = vec![0u32; adj_off[n] as usize];
    let mut cursor: Vec<u32> = adj_off[..n].to_vec();
    for pair in live.windows(2) {
        // vaq-lint: allow(panic-hygiene) -- windows(2) yields exactly
        // two elements per slice.
        let (a, b) = (pair[0], pair[1]);
        adj[cursor[a as usize] as usize] = b;
        cursor[a as usize] += 1;
        adj[cursor[b as usize] as usize] = a;
        cursor[b as usize] += 1;
    }
    for v in 0..n {
        adj[adj_off[v] as usize..adj_off[v + 1] as usize].sort_unstable();
    }

    let hidden: Vec<u32> = (0..n as u32).filter(|&v| !is_live[v as usize]).collect();
    let anchor = hidden
        .iter()
        .map(|&h| {
            let q = pts[h as usize];
            // vaq-lint: allow(panic-hygiene) -- the lower hull of a
            // non-empty lifted set is non-empty, so `live` has a first
            // element.
            let mut best = live[0];
            let mut bd = pts[best as usize].dist_sq(q) - cw[best as usize];
            // vaq-lint: allow(panic-hygiene) -- `live` is non-empty, and
            // `[1..]` of a one-element slice is the empty slice, not a
            // panic.
            for &v in &live[1..] {
                let dv = pts[v as usize].dist_sq(q) - cw[v as usize];
                if dv < bd {
                    bd = dv;
                    best = v;
                }
            }
            best
        })
        .collect();

    TriangulationFlat {
        pts,
        canon,
        members_off,
        members,
        adj_off,
        adj,
        hull: live,
        degenerate: true,
        weights: cw,
        hidden,
        anchor,
    }
}

impl Triangulation {
    /// Which diagram this triangulation realizes: [`DiagramKind::Power`]
    /// exactly when it carries weights. Uniform-weight builds report
    /// [`DiagramKind::Euclidean`]: they are Euclidean builds.
    #[inline]
    pub fn diagram_kind(&self) -> DiagramKind {
        if self.flat.weights.is_empty() {
            DiagramKind::Euclidean
        } else {
            DiagramKind::Power
        }
    }

    /// The site weights, indexed by canonical vertex id; empty for the
    /// Euclidean diagram.
    #[inline]
    pub fn weights(&self) -> &[f64] {
        &self.flat.weights
    }

    /// The weight of canonical vertex `v` (`0.0` on the Euclidean
    /// diagram).
    #[inline]
    pub fn weight(&self, v: u32) -> f64 {
        if self.flat.weights.is_empty() {
            0.0
        } else {
            self.flat.weights[v as usize]
        }
    }

    /// The hidden canonical vertices (sorted ascending): weighted sites
    /// dominated everywhere, owning no cell, no Delaunay vertex and no
    /// neighbours. Always empty for Euclidean builds.
    #[inline]
    pub fn hidden_vertices(&self) -> &[u32] {
        &self.flat.hidden
    }

    /// `true` when canonical vertex `v` owns no cell (see
    /// [`Triangulation::hidden_vertices`]).
    #[inline]
    pub fn is_hidden(&self, v: u32) -> bool {
        self.flat.hidden.binary_search(&v).is_ok()
    }

    /// A live stand-in for vertex `v` in graph walks: `v` itself when
    /// live, a live vertex of minimum power distance to `v`'s location
    /// when hidden. Seeding a walk or a cell expansion at `anchor_of(v)`
    /// is always safe; seeding at a hidden `v` would stall immediately
    /// (no neighbours).
    #[inline]
    pub fn anchor_of(&self, v: u32) -> u32 {
        match self.flat.hidden.binary_search(&v) {
            Ok(k) => self.flat.anchor[k],
            Err(_) => v,
        }
    }

    /// Number of canonical (unique) vertices.
    #[inline]
    pub fn vertex_count(&self) -> usize {
        self.flat.pts.len()
    }

    /// The coordinates of canonical vertex `v`.
    #[inline]
    pub fn point(&self, v: u32) -> Point {
        self.flat.pts[v as usize]
    }

    /// All canonical vertex coordinates, indexed by vertex id.
    #[inline]
    pub fn points(&self) -> &[Point] {
        &self.flat.pts
    }

    /// The canonical vertex that input index `i` collapsed onto. Vertex
    /// ids are Hilbert ranks ([`rank_sites`]), not input indices: map
    /// through this function and [`Triangulation::inputs_of`].
    #[inline]
    pub fn canonical(&self, i: usize) -> u32 {
        self.flat.canon[i]
    }

    /// The input indices that collapsed onto canonical vertex `v` (always
    /// at least one, ascending). `v` is a Hilbert rank, so this is how a
    /// vertex id becomes an input index.
    #[inline]
    pub fn inputs_of(&self, v: u32) -> &[u32] {
        let lo = self.flat.members_off[v as usize] as usize;
        let hi = self.flat.members_off[v as usize + 1] as usize;
        &self.flat.members[lo..hi]
    }

    /// `true` when the input was entirely collinear (including 1 or 2
    /// points) and the structure is the degenerate path described in the
    /// module docs. There are no triangles in this mode, but adjacency,
    /// nearest-vertex walks and Voronoi cells all still work.
    #[inline]
    pub fn is_degenerate(&self) -> bool {
        self.flat.degenerate
    }

    /// The Voronoi neighbours `VN(P, p)` of canonical vertex `v`, sorted
    /// ascending. This is the oracle at the heart of the paper's
    /// Algorithm 1. Ids are canonical vertex ids (Hilbert ranks), not
    /// input indices; [`Triangulation::inputs_of`] maps them back.
    #[inline]
    pub fn neighbors(&self, v: u32) -> &[u32] {
        let lo = self.flat.adj_off[v as usize] as usize;
        let hi = self.flat.adj_off[v as usize + 1] as usize;
        &self.flat.adj[lo..hi]
    }

    /// Degree of canonical vertex `v` in the Delaunay graph.
    #[inline]
    pub fn degree(&self, v: u32) -> usize {
        self.neighbors(v).len()
    }

    /// Total number of Delaunay edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.flat.adj.len() / 2
    }

    /// Convex-hull vertices in CCW order (degenerate mode: path order).
    #[inline]
    pub fn hull(&self) -> &[u32] {
        &self.flat.hull
    }

    /// Number of finite triangles, by Euler's formula for a triangulated
    /// point set: edges + 1 − live vertices (`0` in degenerate path mode).
    pub fn triangle_count(&self) -> usize {
        if self.flat.degenerate {
            return 0;
        }
        // Saturating: a structure loaded from a crafted file may carry
        // fewer edges than vertices, and must not panic here.
        (self.edge_count() + 1).saturating_sub(self.flat.pts.len() - self.flat.hidden.len())
    }

    /// The canonical vertex nearest to `q` under the build metric —
    /// minimum squared distance for Euclidean builds, minimum power
    /// distance `|q − p|² − w` for weighted ones — found by greedy descent
    /// on the Delaunay/regular graph from `hint` (any vertex; defaults
    /// to 0).
    ///
    /// Correctness follows from the (power-)Voronoi property: a live
    /// vertex that does not minimise the metric distance to `q` always has
    /// a cell-adjacent (hence graph-adjacent) neighbour of strictly
    /// smaller metric distance, so the descent cannot get stuck at a
    /// non-answer; the key strictly decreases, so it terminates. Ties may
    /// return any of the tied vertices. A **hidden** `hint` (or hidden
    /// vertex 0) has no neighbours and would stall the walk at a cell-less
    /// site; it is first remapped to its live anchor. Hidden vertices are
    /// never returned: the result always owns the cell containing `q`.
    ///
    /// On the Euclidean diagram every weight is `0.0` and `d − 0.0 == d`
    /// bit-for-bit, so the descent visits exactly the vertices the
    /// unweighted code did.
    pub fn nearest_vertex(&self, q: Point, hint: Option<u32>) -> u32 {
        let mut v = self.anchor_of(hint.unwrap_or(0).min(self.flat.pts.len() as u32 - 1));
        let mut dv = self.flat.pts[v as usize].dist_sq(q) - self.weight(v);
        loop {
            let mut best = v;
            let mut bd = dv;
            for &u in self.neighbors(v) {
                let d = self.flat.pts[u as usize].dist_sq(q) - self.weight(u);
                if d < bd {
                    bd = d;
                    best = u;
                }
            }
            if best == v {
                return v;
            }
            v = best;
            dv = bd;
        }
    }
}

/// Builds the CSR Voronoi-neighbour adjacency from the closed mesh.
///
/// Every finite triangle contributes its three CCW directed edges; every
/// ghost contributes its single finite directed edge (the reversed hull
/// edge). Together these enumerate each undirected Delaunay edge exactly
/// once per direction, so no deduplication is needed.
fn build_adjacency(mesh: &Mesh, n: usize) -> (Vec<u32>, Vec<u32>) {
    let mut deg = vec![0u32; n];
    for t in mesh.live_ids() {
        let tri = mesh.tri(t);
        match tri.ghost_slot() {
            None => {
                for i in 0..3 {
                    deg[tri.v[i] as usize] += 1;
                }
            }
            Some(g) => deg[tri.v[(g + 1) % 3] as usize] += 1,
        }
    }
    let mut off = vec![0u32; n + 1];
    for v in 0..n {
        off[v + 1] = off[v] + deg[v];
    }
    let mut adj = vec![0u32; off[n] as usize];
    let mut cursor: Vec<u32> = off[..n].to_vec();
    let push = |src: u32, dst: u32, adj: &mut Vec<u32>, cursor: &mut Vec<u32>| {
        adj[cursor[src as usize] as usize] = dst;
        cursor[src as usize] += 1;
    };
    for t in mesh.live_ids() {
        let tri = mesh.tri(t);
        match tri.ghost_slot() {
            None => {
                for i in 0..3 {
                    push(tri.v[i], tri.v[(i + 1) % 3], &mut adj, &mut cursor);
                }
            }
            Some(g) => {
                let u = tri.v[(g + 1) % 3];
                let v = tri.v[(g + 2) % 3];
                push(u, v, &mut adj, &mut cursor);
            }
        }
    }
    for v in 0..n {
        adj[off[v] as usize..off[v + 1] as usize].sort_unstable();
    }
    (off, adj)
}

/// Extracts the CCW hull cycle from the ghost triangles.
fn extract_hull(mesh: &Mesh) -> Vec<u32> {
    // Each ghost's finite edge (u, v) is the reversed hull edge, i.e. the
    // hull contains v → u.
    let mut next: Vec<(u32, u32)> = Vec::new();
    for t in mesh.live_ids() {
        let tri = mesh.tri(t);
        if let Some(g) = tri.ghost_slot() {
            let u = tri.v[(g + 1) % 3];
            let v = tri.v[(g + 2) % 3];
            next.push((v, u));
        }
    }
    if next.is_empty() {
        return Vec::new();
    }
    next.sort_unstable();
    let start = next.iter().map(|&(v, _)| v).min().expect("non-empty");
    let mut hull = Vec::with_capacity(next.len());
    let mut cur = start;
    loop {
        hull.push(cur);
        let k = next
            .binary_search_by_key(&cur, |&(v, _)| v)
            .expect("hull cycle is closed");
        cur = next[k].1;
        if cur == start {
            break;
        }
        debug_assert!(hull.len() <= next.len(), "hull cycle corrupt");
    }
    hull
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use vaq_geom::convex_hull_indices;

    /// The reference checks. They inspect the mesh the build derived the
    /// triangulation from: re-running the build over the triangulation's
    /// own canonical sites (and weights) reproduces it exactly, and
    /// `build_mesh` asserts that before handing the mesh out.
    impl Triangulation {
        /// The build mesh, after asserting that it has exactly this
        /// triangulation's adjacency and hull (and is empty in degenerate
        /// path mode).
        fn build_mesh(&self) -> Mesh {
            let f = &self.flat;
            let weights = (!f.weights.is_empty()).then_some(&f.weights[..]);
            let (_, mesh) = build_with_mesh(&f.pts, weights);
            if f.degenerate {
                assert_eq!(mesh.slots(), 0, "degenerate build keeps a mesh");
            } else {
                let (adj_off, adj) = build_adjacency(&mesh, f.pts.len());
                assert!(
                    adj_off == f.adj_off && adj == f.adj,
                    "mesh adjacency differs from the triangulation's"
                );
                assert_eq!(extract_hull(&mesh), f.hull, "mesh hull differs");
            }
            mesh
        }

        /// Verifies the local optimality property on every internal edge
        /// of the build mesh: empty circumcircle (Delaunay) for Euclidean
        /// builds, no power conflict (local regularity) for weighted ones.
        fn is_delaunay(&self) -> bool {
            let mesh = self.build_mesh();
            let weighted = self.diagram_kind() == DiagramKind::Power;
            for t in mesh.live_ids() {
                let tri = mesh.tri(t);
                if tri.is_ghost() {
                    continue;
                }
                let [a, b, c] = tri.v;
                let (pa, pb, pc) = (self.point(a), self.point(b), self.point(c));
                for i in 0..3 {
                    let ntri = mesh.tri(tri.n[i]);
                    if ntri.is_ghost() {
                        continue;
                    }
                    let (ea, eb) = tri.edge(i);
                    let j = ntri
                        .slot_of_edge(eb, ea)
                        .expect("neighbour shares reversed edge");
                    let apex = ntri.v[j];
                    let bad = if weighted {
                        power_incircle(
                            pa,
                            pb,
                            pc,
                            self.point(apex),
                            self.weight(a),
                            self.weight(b),
                            self.weight(c),
                            self.weight(apex),
                        ) > 0.0
                    } else {
                        incircle(pa, pb, pc, self.point(apex)) > 0.0
                    };
                    if bad {
                        return false;
                    }
                }
            }
            true
        }

        /// Structural self-check: the flat arrays survive
        /// [`Triangulation::from_flat`] unchanged, and the build mesh has
        /// mutual neighbour links and as many finite triangles as
        /// [`Triangulation::triangle_count`] reports.
        fn check_structure(&self) -> Result<(), String> {
            let back = Triangulation::from_flat(self.as_flat().clone())?;
            if back.as_flat() != self.as_flat() {
                return Err("the flat round trip changed the arrays".into());
            }
            let mesh = self.build_mesh();
            let finite = mesh.live_ids().filter(|&t| !mesh.tri(t).is_ghost()).count();
            if finite != self.triangle_count() {
                return Err(format!(
                    "mesh has {finite} finite triangles, triangle_count() reports {}",
                    self.triangle_count()
                ));
            }
            mesh.check_links()
        }
    }

    fn p(x: f64, y: f64) -> Point {
        Point::new(x, y)
    }

    fn uniform(n: usize, seed: u64) -> Vec<Point> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| p(rng.gen::<f64>(), rng.gen::<f64>()))
            .collect()
    }

    /// The neighbours of input `i`'s vertex, as input indices, ascending:
    /// vertex ids are Hilbert ranks, so tests that name inputs map
    /// through `canonical` and `inputs_of`.
    fn input_neighbors(t: &Triangulation, i: usize) -> Vec<u32> {
        let mut out: Vec<u32> = t
            .neighbors(t.canonical(i))
            .iter()
            .flat_map(|&v| t.inputs_of(v))
            .copied()
            .collect();
        out.sort_unstable();
        out
    }

    /// The input indices of a list of vertices, ascending.
    fn inputs_of_all(t: &Triangulation, vertices: &[u32]) -> Vec<u32> {
        let mut out: Vec<u32> = vertices
            .iter()
            .flat_map(|&v| t.inputs_of(v))
            .copied()
            .collect();
        out.sort_unstable();
        out
    }

    /// Brute-force nearest canonical vertex.
    fn brute_nn(pts: &[Point], q: Point) -> f64 {
        pts.iter()
            .map(|s| s.dist_sq(q))
            .fold(f64::INFINITY, f64::min)
    }

    #[test]
    fn empty_input_is_an_error() {
        let r = Triangulation::new(&[]);
        assert!(matches!(r, Err(DelaunayError::EmptyInput)));
    }

    #[test]
    fn non_finite_input_is_an_error() {
        let r = Triangulation::new(&[p(0.0, 0.0), p(f64::NAN, 1.0)]);
        assert!(matches!(r, Err(DelaunayError::NonFiniteCoordinate(1))));
    }

    #[test]
    fn single_point_is_degenerate_with_no_neighbors() {
        let t = Triangulation::new(&[p(3.0, 4.0)]).unwrap();
        assert!(t.is_degenerate());
        assert_eq!(t.vertex_count(), 1);
        assert_eq!(t.neighbors(0), &[] as &[u32]);
        assert_eq!(t.nearest_vertex(p(100.0, -5.0), None), 0);
    }

    #[test]
    fn two_points_form_a_path() {
        let t = Triangulation::new(&[p(0.0, 0.0), p(1.0, 0.0)]).unwrap();
        assert!(t.is_degenerate());
        assert_eq!(t.neighbors(0), &[1]);
        assert_eq!(t.neighbors(1), &[0]);
    }

    #[test]
    fn collinear_points_form_a_sorted_path() {
        // Input deliberately out of line order.
        let pts = vec![p(3.0, 3.0), p(0.0, 0.0), p(2.0, 2.0), p(1.0, 1.0)];
        let t = Triangulation::new(&pts).unwrap();
        assert!(t.is_degenerate());
        // Path order along the line: 1 (0,0) – 3 (1,1) – 2 (2,2) – 0 (3,3).
        assert_eq!(input_neighbors(&t, 1), [3]);
        assert_eq!(input_neighbors(&t, 3), [1, 2]);
        assert_eq!(input_neighbors(&t, 2), [0, 3]);
        assert_eq!(input_neighbors(&t, 0), [2]);
        assert_eq!(t.edge_count(), 3);
        t.check_structure().unwrap();
    }

    #[test]
    fn triangle_of_three_points() {
        let t = Triangulation::new(&[p(0.0, 0.0), p(1.0, 0.0), p(0.0, 1.0)]).unwrap();
        assert!(!t.is_degenerate());
        assert_eq!(t.triangle_count(), 1);
        assert_eq!(t.edge_count(), 3);
        assert_eq!(t.hull().len(), 3);
        assert!(t.is_delaunay());
        t.check_structure().unwrap();
        // Every vertex neighbours the other two.
        for v in 0..3 {
            assert_eq!(t.degree(v), 2);
        }
    }

    #[test]
    fn square_with_centre_point() {
        let pts = vec![
            p(0.0, 0.0),
            p(1.0, 0.0),
            p(1.0, 1.0),
            p(0.0, 1.0),
            p(0.5, 0.5),
        ];
        let t = Triangulation::new(&pts).unwrap();
        assert_eq!(t.triangle_count(), 4);
        assert!(t.is_delaunay());
        t.check_structure().unwrap();
        // The centre neighbours all four corners.
        assert_eq!(input_neighbors(&t, 4), [0, 1, 2, 3]);
        assert_eq!(t.hull().len(), 4);
    }

    #[test]
    fn cocircular_grid_is_still_delaunay() {
        // A 5×5 integer grid: every unit square's four corners are
        // cocircular, exercising the incircle == 0 tie handling.
        let mut pts = Vec::new();
        for x in 0..5 {
            for y in 0..5 {
                pts.push(p(f64::from(x), f64::from(y)));
            }
        }
        let t = Triangulation::new(&pts).unwrap();
        assert!(!t.is_degenerate());
        assert!(t.is_delaunay());
        t.check_structure().unwrap();
        // Euler: V - E + F = 2, with F = triangles + outer face.
        let v = t.vertex_count() as i64;
        let e = t.edge_count() as i64;
        let f = t.triangle_count() as i64 + 1;
        assert_eq!(v - e + f, 2);
        // A triangulated 4×4-square grid has exactly 2·16 = 32 triangles.
        assert_eq!(t.triangle_count(), 32);
        assert_eq!(t.hull().len(), 16);
    }

    #[test]
    fn duplicates_are_merged_and_mapped() {
        let pts = vec![
            p(0.0, 0.0),
            p(1.0, 0.0),
            p(0.0, 0.0), // dup of 0
            p(0.0, 1.0),
            p(1.0, 0.0), // dup of 1
            p(0.0, 0.0), // dup of 0
        ];
        let t = Triangulation::new(&pts).unwrap();
        assert_eq!(t.vertex_count(), 3);
        // Ids are Hilbert ranks over the unit bounding box: the curve
        // starts at (0, 0), passes (0, 1) and ends at (1, 0).
        assert_eq!(t.canonical(0), 0);
        assert_eq!(t.canonical(2), 0);
        assert_eq!(t.canonical(5), 0);
        assert_eq!(t.canonical(3), 1);
        assert_eq!(t.canonical(1), 2);
        assert_eq!(t.canonical(4), 2);
        assert_eq!(t.inputs_of(0), &[0, 2, 5]);
        assert_eq!(t.inputs_of(1), &[3]);
        assert_eq!(t.inputs_of(2), &[1, 4]);
        t.check_structure().unwrap();
    }

    #[test]
    fn negative_zero_merges_with_positive_zero() {
        let pts = vec![p(-0.0, 0.0), p(0.0, -0.0), p(1.0, 1.0)];
        let t = Triangulation::new(&pts).unwrap();
        assert_eq!(t.vertex_count(), 2);
    }

    /// (−0, 1) and (0, 1) are equal under `==` and must merge even when a
    /// distinct point with x = 0 lies between them in any coordinate
    /// order. Unmerged, the second copy reached insertion as a duplicate
    /// and was left a cell-less vertex with no neighbours.
    #[test]
    fn signed_zero_duplicates_merge_around_a_point_between_them() {
        let pts = vec![
            p(-0.0, 1.0),
            p(0.0, 0.5),
            p(0.0, 1.0),
            p(2.0, 0.0),
            p(2.0, 2.0),
            p(-2.0, 0.0),
        ];
        let t = Triangulation::new(&pts).unwrap();
        assert_eq!(t.vertex_count(), 5);
        assert_eq!(t.canonical(0), t.canonical(2));
        assert_eq!(t.inputs_of(t.canonical(0)), &[0, 2]);
        for v in 0..t.vertex_count() as u32 {
            assert!(t.degree(v) > 0, "vertex {v} has no neighbours");
        }
        assert!(t.is_delaunay());
        t.check_structure().unwrap();
    }

    /// Delaunay neighbours get nearby ids: on uniform points in generator
    /// order, the median id gap over the edges is a handful, and nine
    /// edges in ten stay within 1,024. Input-order ids read a median gap
    /// of about n / 4 here.
    #[test]
    fn hilbert_ids_keep_delaunay_edges_local() {
        let t = Triangulation::new(&uniform(20_000, 2024)).unwrap();
        let mut gaps: Vec<u32> = (0..t.vertex_count() as u32)
            .flat_map(|v| {
                t.neighbors(v)
                    .iter()
                    .filter(move |&&u| u > v)
                    .map(move |&u| u - v)
            })
            .collect();
        gaps.sort_unstable();
        let median = gaps[gaps.len() / 2];
        let near = gaps.iter().filter(|&&g| g <= 1024).count() as f64 / gaps.len() as f64;
        assert!(median <= 16, "median id gap {median}");
        assert!(near >= 0.9, "{near:.3} of edges within 1,024 ids");
    }

    #[test]
    fn random_points_delaunay_and_euler() {
        for seed in 0..4 {
            let pts = uniform(400, seed);
            let t = Triangulation::new(&pts).unwrap();
            assert!(t.is_delaunay(), "seed {seed}");
            t.check_structure().unwrap();
            let v = t.vertex_count() as i64;
            let e = t.edge_count() as i64;
            let f = t.triangle_count() as i64 + 1;
            assert_eq!(v - e + f, 2, "Euler failed at seed {seed}");
            // With all vertices on or inside the hull:
            // E = 3V - 3 - H, T = 2V - 2 - H.
            let h = t.hull().len() as i64;
            assert_eq!(e, 3 * v - 3 - h);
            assert_eq!(t.triangle_count() as i64, 2 * v - 2 - h);
        }
    }

    #[test]
    fn hull_matches_monotone_chain() {
        let pts = uniform(300, 7);
        let t = Triangulation::new(&pts).unwrap();
        let expect = convex_hull_indices(&pts);
        let hull = inputs_of_all(&t, t.hull());
        // Same set of vertices (rotation/start may differ).
        let mut expect_sorted: Vec<u32> = expect.iter().map(|&i| i as u32).collect();
        expect_sorted.sort_unstable();
        assert_eq!(hull, expect_sorted);
    }

    #[test]
    fn nearest_vertex_matches_brute_force() {
        let pts = uniform(500, 11);
        let t = Triangulation::new(&pts).unwrap();
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..200 {
            let q = p(rng.gen::<f64>() * 1.4 - 0.2, rng.gen::<f64>() * 1.4 - 0.2);
            let v = t.nearest_vertex(q, None);
            let got = t.point(v).dist_sq(q);
            let want = brute_nn(&pts, q);
            assert!(
                (got - want).abs() <= 1e-12 * (1.0 + want),
                "q={q}: got {got}, want {want}"
            );
        }
    }

    #[test]
    fn nearest_vertex_on_degenerate_path() {
        let pts: Vec<Point> = (0..10).map(|i| p(f64::from(i), 0.0)).collect();
        let t = Triangulation::new(&pts).unwrap();
        assert!(t.is_degenerate());
        assert_eq!(t.nearest_vertex(p(3.4, 5.0), None), 3);
        assert_eq!(t.nearest_vertex(p(8.6, -2.0), Some(0)), 9);
    }

    #[test]
    fn adjacency_is_symmetric_and_irreflexive() {
        let pts = uniform(300, 5);
        let t = Triangulation::new(&pts).unwrap();
        for v in 0..t.vertex_count() as u32 {
            for &u in t.neighbors(v) {
                assert_ne!(u, v, "self-loop at {v}");
                assert!(
                    t.neighbors(u).binary_search(&v).is_ok(),
                    "asymmetric edge {v}–{u}"
                );
            }
        }
    }

    #[test]
    fn points_on_hull_edges_and_repeated_builds() {
        // Points exactly on the seed triangle's edges (on-edge insertion).
        let pts = vec![
            p(0.0, 0.0),
            p(2.0, 0.0),
            p(0.0, 2.0),
            p(1.0, 0.0), // on hull edge
            p(0.0, 1.0), // on hull edge
            p(1.0, 1.0), // on hull edge (hypotenuse)
        ];
        let t = Triangulation::new(&pts).unwrap();
        assert!(t.is_delaunay());
        t.check_structure().unwrap();
        assert_eq!(t.hull().len(), 6, "all points lie on the hull");
    }

    /// Brute-force power-nearest live canonical vertex.
    fn brute_power_nn(t: &Triangulation, q: Point) -> f64 {
        (0..t.vertex_count() as u32)
            .filter(|&v| !t.is_hidden(v))
            .map(|v| t.point(v).dist_sq(q) - t.weight(v))
            .fold(f64::INFINITY, f64::min)
    }

    /// Weighted builds must agree with the Euclidean structure exactly
    /// when the weights are uniform (here: absent, all-zero, all-equal).
    #[test]
    fn uniform_weights_are_bit_identical_to_euclidean() {
        let pts = uniform(180, 21);
        let plain = Triangulation::new(&pts).unwrap();
        for weights in [
            None,
            Some(vec![0.0; pts.len()]),
            Some(vec![7.25; pts.len()]),
        ] {
            let w = Triangulation::with_site_metric(&pts, weights.as_deref()).unwrap();
            assert_eq!(w.diagram_kind(), DiagramKind::Euclidean);
            assert!(w.hidden_vertices().is_empty());
            assert_eq!(w.hull(), plain.hull());
            assert_eq!(w.triangle_count(), plain.triangle_count());
            for v in 0..pts.len() as u32 {
                assert_eq!(w.neighbors(v), plain.neighbors(v), "vertex {v}");
            }
            // The nearest-vertex walk visits the same vertices: d − 0.0
            // is bitwise d.
            let mut rng = StdRng::seed_from_u64(5);
            for _ in 0..50 {
                let q = p(rng.gen::<f64>() * 2.0 - 0.5, rng.gen::<f64>() * 2.0 - 0.5);
                assert_eq!(w.nearest_vertex(q, None), plain.nearest_vertex(q, None));
            }
        }
    }

    /// A heavy central site swallows every interior light site. (Sites on
    /// the convex hull can never be hidden — their lifted points are
    /// extreme — so "dominates all others" means all non-hull sites.)
    #[test]
    fn dominating_site_hides_all_interior_sites() {
        let mut pts = vec![p(0.0, 0.0), p(10.0, 0.0), p(10.0, 10.0), p(0.0, 10.0)];
        let mut w = vec![0.0, 0.0, 0.0, 0.0];
        pts.push(p(5.0, 5.0)); // the dominator
        w.push(1000.0);
        let interior = [p(3.0, 3.0), p(7.0, 6.0), p(4.0, 8.0), p(6.0, 2.0)];
        for q in interior {
            pts.push(q);
            w.push(0.0);
        }
        let t = Triangulation::with_site_metric(&pts, Some(&w)).unwrap();
        assert_eq!(t.diagram_kind(), DiagramKind::Power);
        assert!(t.is_delaunay(), "regularity");
        t.check_structure().unwrap();
        assert_eq!(
            inputs_of_all(&t, t.hidden_vertices()),
            [5, 6, 7, 8],
            "interior sites hide"
        );
        for i in 0..5 {
            let v = t.canonical(i);
            assert!(!t.is_hidden(v), "hull sites and the dominator are live");
            assert!(t.degree(v) > 0);
        }
        for &h in t.hidden_vertices() {
            assert_eq!(t.degree(h), 0, "hidden sites have no neighbours");
            assert!(!t.is_hidden(t.anchor_of(h)), "anchors are live");
        }
    }

    /// Regression for the greedy-walk stall: seeding `nearest_vertex` at a
    /// hidden (cell-less, neighbour-less) site must step to a live vertex
    /// instead of returning the dominated site itself.
    #[test]
    fn nearest_vertex_steps_off_hidden_sites() {
        let pts = vec![
            p(0.0, 0.0),
            p(10.0, 0.0),
            p(10.0, 10.0),
            p(0.0, 10.0),
            p(5.0, 5.0), // heavy dominator
            p(4.9, 5.1), // dominated site right next to it
        ];
        let w = vec![0.0, 0.0, 0.0, 0.0, 500.0, 0.0];
        let t = Triangulation::with_site_metric(&pts, Some(&w)).unwrap();
        let dominated = t.canonical(5);
        assert_eq!(t.hidden_vertices(), &[dominated]);
        let mut rng = StdRng::seed_from_u64(77);
        for _ in 0..60 {
            let q = p(rng.gen::<f64>() * 12.0 - 1.0, rng.gen::<f64>() * 12.0 - 1.0);
            // Hidden hint must neither stall nor be returned.
            let v = t.nearest_vertex(q, Some(dominated));
            assert!(!t.is_hidden(v));
            let got = t.point(v).dist_sq(q) - t.weight(v);
            let want = brute_power_nn(&t, q);
            assert!(
                (got - want).abs() <= 1e-9 * (1.0 + want.abs()),
                "q={q}: got {got}, want {want}"
            );
            // And the default hint agrees.
            assert_eq!(t.nearest_vertex(q, None), v);
        }
    }

    /// Coincident sites with distinct weights collapse onto one canonical
    /// vertex carrying the maximum weight of the group.
    #[test]
    fn duplicate_coordinates_take_max_weight() {
        let pts = vec![
            p(0.0, 0.0),
            p(4.0, 0.0),
            p(0.0, 4.0),
            p(1.0, 1.0),
            p(1.0, 1.0), // dup of 3
            p(1.0, 1.0), // dup of 3
        ];
        let w = vec![0.0, 0.0, 0.0, 2.0, 9.0, -3.0];
        let t = Triangulation::with_site_metric(&pts, Some(&w)).unwrap();
        assert_eq!(t.vertex_count(), 4);
        let v = t.canonical(4);
        assert_eq!(t.canonical(3), v);
        assert_eq!(t.weight(v), 9.0, "max weight of the coincident group");
        assert_eq!(t.inputs_of(v), &[3, 4, 5]);
        assert!(t.is_delaunay());
        t.check_structure().unwrap();
    }

    /// Collinear weighted sites: the 1-D lower envelope hides dominated
    /// interior sites; line-extreme sites are always live.
    #[test]
    fn weighted_collinear_lower_envelope() {
        // Light middle site between two plain ones: hidden.
        let pts = vec![p(0.0, 0.0), p(1.0, 0.0), p(2.0, 0.0)];
        let t = Triangulation::with_site_metric(&pts, Some(&[0.0, -5.0, 0.0])).unwrap();
        assert!(t.is_degenerate());
        assert_eq!(t.hidden_vertices(), &[1]);
        assert_eq!(t.neighbors(0), &[2]);
        assert_eq!(t.neighbors(2), &[0]);
        assert_eq!(t.hull(), &[0, 2], "hull is the live path order");
        assert!(!t.is_hidden(t.anchor_of(1)));
        assert!(!t.is_hidden(t.nearest_vertex(p(1.0, 0.0), Some(1))));
        t.check_structure().unwrap();

        // Heavy middle site: everyone keeps a 1-D cell.
        let t = Triangulation::with_site_metric(&pts, Some(&[0.0, 5.0, 0.0])).unwrap();
        assert!(t.hidden_vertices().is_empty());
        assert_eq!(t.neighbors(1), &[0, 2]);
        t.check_structure().unwrap();

        // Heavy *end* site hides its lighter inner neighbour but never the
        // other extreme.
        let t = Triangulation::with_site_metric(&pts, Some(&[3.9, 0.0, 0.0])).unwrap();
        assert_eq!(t.hidden_vertices(), &[1]);
        assert!(!t.is_hidden(2), "line-extreme sites cannot hide");
        t.check_structure().unwrap();
    }

    /// The anchor pass visits the hidden sites in id (Hilbert) order and
    /// starts each descent at the previous anchor, so a descent takes a
    /// few steps. Weights follow the benchmark's clustered radii: four
    /// radius classes up to 1.12 mean spacings, jittered by 25 %, which
    /// hides about one site in ten. Starting every descent at one fixed
    /// hull vertex takes about 60 steps per hidden site here.
    #[test]
    fn anchor_descents_stay_local() {
        let n = 20_000;
        let pts = uniform(n, 404);
        let mut rng = StdRng::seed_from_u64(405);
        let max_radius = 1.12 / (n as f64).sqrt();
        let radii: Vec<f64> = (0..4)
            .map(|_| (1.0 - rng.gen::<f64>()) * max_radius)
            .collect();
        let w: Vec<f64> = (0..n)
            .map(|_| {
                let r =
                    radii[rng.gen_range(0..4usize)] * (1.0 + (rng.gen::<f64>() * 2.0 - 1.0) * 0.25);
                r * r
            })
            .collect();
        let t = Triangulation::with_site_metric(&pts, Some(&w)).unwrap();
        let f = t.as_flat();
        assert!(f.hidden.len() > n / 50, "{} hidden sites", f.hidden.len());
        let (anchor, steps) =
            anchor_hidden(&f.pts, &f.adj_off, &f.adj, &f.weights, &f.hidden, f.hull[0]);
        assert_eq!(anchor, f.anchor, "the build ran this pass");
        assert!(
            steps <= 8 * f.hidden.len(),
            "{steps} descent steps for {} hidden sites",
            f.hidden.len()
        );
    }

    #[test]
    fn weight_validation_errors() {
        let pts = vec![p(0.0, 0.0), p(1.0, 0.0), p(0.0, 1.0)];
        assert!(matches!(
            Triangulation::with_site_metric(&pts, Some(&[1.0, 2.0])),
            Err(DelaunayError::WeightCountMismatch {
                expected: 3,
                got: 2
            })
        ));
        assert!(matches!(
            Triangulation::with_site_metric(&pts, Some(&[1.0, f64::NAN, 0.0])),
            Err(DelaunayError::NonFiniteWeight(1))
        ));
        assert!(matches!(
            Triangulation::with_site_metric(&[], None),
            Err(DelaunayError::EmptyInput)
        ));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        #[test]
        fn prop_delaunay_on_random_clouds(seed in 0u64..5000, n in 3usize..120) {
            let pts = uniform(n, seed);
            let t = Triangulation::new(&pts).unwrap();
            proptest::prop_assert!(t.is_delaunay());
            proptest::prop_assert!(t.check_structure().is_ok());
            let v = t.vertex_count() as i64;
            let e = t.edge_count() as i64;
            let f = t.triangle_count() as i64 + 1;
            proptest::prop_assert_eq!(v - e + f, 2);
        }

        #[test]
        fn prop_delaunay_on_snapped_grids(seed in 0u64..5000, n in 3usize..80) {
            // Snap coordinates to a coarse grid: many exact duplicates,
            // collinear runs and cocircular quadruples.
            let mut rng = StdRng::seed_from_u64(seed);
            let pts: Vec<Point> = (0..n)
                .map(|_| {
                    p(
                        f64::from(rng.gen_range(0..8i32)),
                        f64::from(rng.gen_range(0..8i32)),
                    )
                })
                .collect();
            let t = Triangulation::new(&pts).unwrap();
            proptest::prop_assert!(t.check_structure().is_ok());
            if !t.is_degenerate() {
                proptest::prop_assert!(t.is_delaunay());
            }
            // Every input index maps to a vertex with identical coordinates.
            for (i, q) in pts.iter().enumerate() {
                proptest::prop_assert_eq!(t.point(t.canonical(i)), *q);
            }
        }

        #[test]
        fn prop_weighted_regular_on_snapped_grids(seed in 0u64..5000, n in 3usize..60) {
            // Coarse-grid coordinates and integer weights: duplicates,
            // collinear runs, exact orthogonality ties — the degenerate
            // cases the exact predicate must decide.
            let mut rng = StdRng::seed_from_u64(seed);
            let pts: Vec<Point> = (0..n)
                .map(|_| {
                    p(
                        f64::from(rng.gen_range(0..8i32)),
                        f64::from(rng.gen_range(0..8i32)),
                    )
                })
                .collect();
            let w: Vec<f64> = (0..n).map(|_| f64::from(rng.gen_range(-16..17i32))).collect();
            let t = Triangulation::with_site_metric(&pts, Some(&w)).unwrap();
            proptest::prop_assert!(t.check_structure().is_ok());
            if !t.is_degenerate() {
                proptest::prop_assert!(t.is_delaunay(), "local regularity");
            }
            // Hidden ⟺ no neighbours; anchors are live.
            for v in 0..t.vertex_count() as u32 {
                proptest::prop_assert_eq!(t.is_hidden(v), t.degree(v) == 0 && t.vertex_count() > 1);
                proptest::prop_assert!(!t.is_hidden(t.anchor_of(v)));
            }
            // The greedy walk finds the power-nearest live site from any
            // hint, hidden hints included.
            if !t.is_degenerate() {
                for _ in 0..10 {
                    let q = p(rng.gen::<f64>() * 9.0 - 1.0, rng.gen::<f64>() * 9.0 - 1.0);
                    let hint = rng.gen_range(0..t.vertex_count() as u32);
                    let v = t.nearest_vertex(q, Some(hint));
                    proptest::prop_assert!(!t.is_hidden(v));
                    let got = t.point(v).dist_sq(q) - t.weight(v);
                    let want = brute_power_nn(&t, q);
                    proptest::prop_assert!((got - want).abs() <= 1e-9 * (1.0 + want.abs()));
                }
            }
        }

        #[test]
        fn prop_nearest_vertex_exact(seed in 0u64..2000) {
            let pts = uniform(60, seed);
            let t = Triangulation::new(&pts).unwrap();
            let mut rng = StdRng::seed_from_u64(seed ^ 0xABCD);
            for _ in 0..20 {
                let q = p(rng.gen::<f64>(), rng.gen::<f64>());
                let v = t.nearest_vertex(q, Some(rng.gen_range(0..60)));
                let got = t.point(v).dist_sq(q);
                let want = brute_nn(&pts, q);
                proptest::prop_assert!((got - want).abs() <= 1e-12 * (1.0 + want));
            }
        }
    }
}

//! Triangle-based mesh storage for the Delaunay build.
//!
//! The incremental build works on a flat arena of triangles, each holding
//! three vertex ids and three neighbour ids; it derives the adjacency and
//! hull from the finished arena and then drops it. The arena includes
//! **ghost triangles**: for every hull edge `a→b` (directed
//! counter-clockwise, so the triangulated region lies on its left) there
//! is a ghost triangle containing the reversed edge `b→a` and the symbolic
//! vertex [`GHOST`]. Ghosts make the mesh closed — every directed edge has
//! exactly one triangle on its left — which removes all boundary
//! special-casing from point location and cavity carving.

/// Symbolic "vertex at infinity" used by ghost triangles.
pub const GHOST: u32 = u32::MAX;

/// Sentinel for a missing neighbour (only during construction of the very
/// first triangles; a finished mesh has no `NONE` links).
pub const NONE: u32 = u32::MAX;

/// Vertex-slot marker identifying a freed (dead) triangle in the arena.
const DEAD: u32 = u32::MAX - 1;

/// A triangle: three vertex ids `v` and three neighbour triangle ids `n`.
///
/// Indexing convention: `n[i]` is the triangle across the edge **opposite**
/// vertex `v[i]`, i.e. the edge `(v[(i+1)%3], v[(i+2)%3])`. Finite triangles
/// store their vertices in counter-clockwise order; ghost triangles hold
/// exactly one [`GHOST`] vertex and their finite edge, read cyclically while
/// skipping the ghost, is the *reversed* hull edge.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Tri {
    /// Vertex ids (CCW for finite triangles).
    pub v: [u32; 3],
    /// Neighbour ids; `n[i]` shares the edge opposite `v[i]`.
    pub n: [u32; 3],
}

impl Tri {
    /// The directed edge opposite vertex slot `i`: `(v[i+1], v[i+2])`
    /// (indices mod 3). For a CCW finite triangle this edge is also
    /// directed CCW, so the triangle lies on its left.
    #[inline]
    pub fn edge(&self, i: usize) -> (u32, u32) {
        (self.v[(i + 1) % 3], self.v[(i + 2) % 3])
    }

    /// The slot of vertex `w` in this triangle, if present.
    #[inline]
    pub fn slot_of(&self, w: u32) -> Option<usize> {
        self.v.iter().position(|&x| x == w)
    }

    /// The slot `i` whose opposite edge equals the directed edge `(a, b)`.
    #[inline]
    pub fn slot_of_edge(&self, a: u32, b: u32) -> Option<usize> {
        (0..3).find(|&i| self.edge(i) == (a, b))
    }

    /// The slot holding [`GHOST`], if this is a ghost triangle.
    #[inline]
    pub fn ghost_slot(&self) -> Option<usize> {
        self.slot_of(GHOST)
    }

    /// `true` when this triangle contains the ghost vertex.
    #[inline]
    pub fn is_ghost(&self) -> bool {
        self.v.contains(&GHOST)
    }
}

/// Growable triangle arena with a free list.
///
/// Freed slots are recycled by subsequent allocations, so the arena stays
/// compact across the churn of Bowyer–Watson cavity re-triangulation
/// (each insertion frees the cavity triangles and allocates the star).
#[derive(Debug, Default)]
pub struct Mesh {
    tris: Vec<Tri>,
    free: Vec<u32>,
}

impl Mesh {
    /// Creates an empty mesh.
    pub fn new() -> Mesh {
        Mesh::default()
    }

    /// Creates an empty mesh with capacity for `n` triangles.
    pub fn with_capacity(n: usize) -> Mesh {
        Mesh {
            tris: Vec::with_capacity(n),
            free: Vec::new(),
        }
    }

    /// Total number of arena slots (live + dead). Slot ids are `< slots()`.
    #[inline]
    pub fn slots(&self) -> usize {
        self.tris.len()
    }

    /// Allocates a triangle with the given vertices and no neighbours.
    pub fn alloc(&mut self, v: [u32; 3]) -> u32 {
        debug_assert!(v.iter().all(|&x| x != DEAD));
        let t = Tri {
            v,
            n: [NONE, NONE, NONE],
        };
        if let Some(id) = self.free.pop() {
            self.tris[id as usize] = t;
            id
        } else {
            self.tris.push(t);
            (self.tris.len() - 1) as u32
        }
    }

    /// Frees triangle `t`, returning its slot to the free list.
    pub fn release(&mut self, t: u32) {
        debug_assert!(!self.is_dead(t), "double free of triangle {t}");
        self.tris[t as usize].v = [DEAD, DEAD, DEAD];
        self.free.push(t);
    }

    /// `true` when slot `t` has been freed.
    #[inline]
    pub fn is_dead(&self, t: u32) -> bool {
        matches!(self.tris[t as usize].v, [DEAD, ..])
    }

    /// Read access to triangle `t`. Must be live.
    #[inline]
    pub fn tri(&self, t: u32) -> &Tri {
        debug_assert!(!self.is_dead(t), "access to dead triangle {t}");
        &self.tris[t as usize]
    }

    /// Write access to triangle `t`. Must be live.
    #[inline]
    pub fn tri_mut(&mut self, t: u32) -> &mut Tri {
        debug_assert!(!self.is_dead(t), "access to dead triangle {t}");
        &mut self.tris[t as usize]
    }

    /// Sets the neighbour link of `t` across the edge opposite slot `i`,
    /// and the reciprocal link in the neighbour (which must contain the
    /// reversed edge).
    pub fn link(&mut self, t: u32, i: usize, u: u32) {
        let (a, b) = self.tri(t).edge(i);
        self.tri_mut(t).n[i] = u;
        let j = self
            .tri(u)
            .slot_of_edge(b, a)
            .expect("link: neighbour does not share the reversed edge");
        self.tri_mut(u).n[j] = t;
    }

    /// Iterates over the ids of all live triangles (ghosts included).
    pub fn live_ids(&self) -> impl Iterator<Item = u32> + '_ {
        (0..self.tris.len() as u32).filter(move |&t| !self.is_dead(t))
    }

    /// Checks the structural invariant that every neighbour link is
    /// mutual and refers to the shared edge reversed. Test/debug helper;
    /// `O(live triangles)`.
    pub fn check_links(&self) -> Result<(), String> {
        for t in self.live_ids() {
            let tri = self.tri(t);
            for i in 0..3 {
                let u = tri.n[i];
                if u == NONE {
                    return Err(format!("triangle {t} has NONE neighbour at slot {i}"));
                }
                if self.is_dead(u) {
                    return Err(format!("triangle {t} links dead triangle {u}"));
                }
                let (a, b) = tri.edge(i);
                let back = self.tri(u).slot_of_edge(b, a);
                match back {
                    None => {
                        return Err(format!(
                            "triangle {t} edge {i} ({a},{b}): neighbour {u} lacks reversed edge"
                        ))
                    }
                    Some(j) if self.tri(u).n[j] != t => {
                        return Err(format!(
                            "triangle {t} edge {i}: neighbour {u} links {} instead",
                            self.tri(u).n[j]
                        ))
                    }
                    Some(_) => {}
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_indexing_is_opposite_vertex() {
        let t = Tri {
            v: [10, 20, 30],
            n: [NONE, NONE, NONE],
        };
        assert_eq!(t.edge(0), (20, 30));
        assert_eq!(t.edge(1), (30, 10));
        assert_eq!(t.edge(2), (10, 20));
        assert_eq!(t.slot_of_edge(30, 10), Some(1));
        assert_eq!(t.slot_of_edge(10, 30), None);
        assert_eq!(t.slot_of(20), Some(1));
        assert_eq!(t.slot_of(99), None);
    }

    #[test]
    fn ghost_detection() {
        let g = Tri {
            v: [5, GHOST, 7],
            n: [NONE, NONE, NONE],
        };
        assert!(g.is_ghost());
        assert_eq!(g.ghost_slot(), Some(1));
        let f = Tri {
            v: [1, 2, 3],
            n: [NONE, NONE, NONE],
        };
        assert!(!f.is_ghost());
        assert_eq!(f.ghost_slot(), None);
    }

    #[test]
    fn alloc_release_recycles_slots() {
        let mut m = Mesh::new();
        let a = m.alloc([0, 1, 2]);
        let b = m.alloc([1, 2, 3]);
        assert_eq!(m.live_ids().count(), 2);
        m.release(a);
        assert_eq!(m.live_ids().count(), 1);
        assert!(m.is_dead(a));
        let c = m.alloc([4, 5, 6]);
        assert_eq!(c, a, "freed slot must be recycled");
        assert!(!m.is_dead(c));
        assert_eq!(m.live_ids().count(), 2);
        let _ = b;
    }

    #[test]
    fn link_sets_both_directions() {
        let mut m = Mesh::new();
        // Two triangles sharing edge (1,2): CCW (0,1,2) and (2,1,3).
        let t0 = m.alloc([0, 1, 2]);
        let t1 = m.alloc([2, 1, 3]);
        m.link(t0, 0, t1); // edge opposite vertex 0 in t0 = (1,2)
        assert_eq!(m.tri(t0).n[0], t1);
        // In t1, the reversed edge (2,1) is opposite vertex 3 (slot 2).
        assert_eq!(m.tri(t1).n[2], t0);
        // check_links fails only because the remaining slots are NONE.
        assert!(m.check_links().is_err());
    }
}

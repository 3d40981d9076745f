//! Disjoint-set union with path halving and union by size.
//!
//! Used by Kruskal-style MST construction and by connectivity checks on the
//! routed nets (the router asserts every net ends up as one connected
//! component after final connection).

/// A disjoint-set forest over `0..len`.
#[derive(Debug, Clone, Default)]
pub struct UnionFind {
    parent: Vec<u32>,
    size: Vec<u32>,
    components: usize,
}

impl UnionFind {
    /// `len` singleton sets.
    pub fn new(len: usize) -> Self {
        let mut uf = UnionFind::default();
        uf.reset(len);
        uf
    }

    /// `len` singleton sets again, whatever the size before, keeping the
    /// allocation.
    pub fn reset(&mut self, len: usize) {
        assert!(len <= u32::MAX as usize, "UnionFind capped at u32 elements");
        self.parent.clear();
        self.parent.extend(0..len as u32);
        self.size.clear();
        self.size.resize(len, 1);
        self.components = len;
    }

    pub fn len(&self) -> usize {
        self.parent.len()
    }

    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Number of disjoint components.
    pub fn components(&self) -> usize {
        self.components
    }

    /// Representative of `x`'s set, with path halving.
    pub fn find(&mut self, mut x: usize) -> usize {
        loop {
            let p = self.parent[x] as usize;
            if p == x {
                return x;
            }
            let gp = self.parent[p];
            self.parent[x] = gp;
            x = gp as usize;
        }
    }

    /// Merge the sets of `a` and `b`. Returns `true` if they were separate.
    pub fn union(&mut self, a: usize, b: usize) -> bool {
        let (mut ra, mut rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        if self.size[ra] < self.size[rb] {
            std::mem::swap(&mut ra, &mut rb);
        }
        self.parent[rb] = ra as u32;
        self.size[ra] += self.size[rb];
        self.components -= 1;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_as_singletons() {
        let mut uf = UnionFind::new(5);
        assert_eq!(uf.components(), 5);
        for i in 0..5 {
            assert_eq!(uf.find(i), i);
        }
    }

    #[test]
    fn union_merges_and_counts() {
        let mut uf = UnionFind::new(4);
        assert!(uf.union(0, 1));
        assert!(uf.union(2, 3));
        assert_eq!(uf.components(), 2);
        assert!(!uf.union(1, 0), "already merged");
        assert!(uf.union(0, 3));
        assert_eq!(uf.components(), 1);
        assert_eq!(uf.find(1), uf.find(2));
    }

    #[test]
    fn chain_unions_compress() {
        let n = 1000;
        let mut uf = UnionFind::new(n);
        for i in 1..n {
            uf.union(i - 1, i);
        }
        assert_eq!(uf.components(), 1);
        // After finds, paths are halved: every find terminates fast.
        for i in 0..n {
            assert_eq!(uf.find(i), uf.find(0));
        }
    }

    #[test]
    fn empty_is_valid() {
        let uf = UnionFind::new(0);
        assert!(uf.is_empty());
        assert_eq!(uf.components(), 0);
    }

    #[test]
    fn reset_returns_to_singletons() {
        let mut uf = UnionFind::new(4);
        uf.union(0, 1);
        uf.union(1, 3);
        for len in [4, 2, 7] {
            uf.reset(len);
            assert_eq!((uf.len(), uf.components()), (len, len));
            for i in 0..len {
                assert_eq!(uf.find(i), i);
            }
            assert!(uf.union(0, 1), "separate again");
        }
    }
}

//! Rewriting-based simplification.
//!
//! The arena constructors already fold constants; this module applies
//! the standard LTL equivalences bottom-up on top of that, and puts
//! every maximal `∧`-tree and `∨`-tree into an ACI normal form. That
//! keeps progression residues compact and, more importantly, makes
//! them *canonical* up to associativity, commutativity and idempotence:
//! Lemma 4.2's progression visits finitely many residues only under
//! that identification, so without it a residue such as `fifo`'s grows
//! one differently nested copy of the same obligation per step.
//!
//! * ACI: a maximal `∧`-tree (`∨`-tree) is flattened to its operands,
//!   which are deduplicated, sorted by [`FormulaId`] and folded back
//!   left to right; `a ∧ ¬a = ⊥`, `a ∨ ¬a = ⊤` across the whole tree;
//! * idempotence: `□□f = □f`, `◇◇f = ◇f`, `f U (f U g) = f U g`;
//! * `○` distribution: `○f ∧ ○g = ○(f ∧ g)`, `○f ∨ ○g = ○(f ∨ g)`;
//! * `□`/`◇` aggregation: `□f ∧ □g = □(f ∧ g)`, `◇f ∨ ◇g = ◇(f ∨ g)`;
//!   the aggregated operand is normalised by the same procedure;
//! * temporal absorption: `f ∧ □(f ∧ g) = □(f ∧ g)`,
//!   `f ∨ ◇(f ∨ g) = ◇(f ∨ g)`, `◇□◇f = □◇f`, `□◇□f = ◇□f`;
//! * boolean absorption: `a ∧ (a ∨ b) = a`, `a ∨ (a ∧ b) = a`.
//!
//! All rules are language-preserving over infinite words
//! (property-tested against the lasso evaluator). Past connectives are
//! traversed but only the boolean rules apply under them.

use crate::arena::{Arena, FormulaId, Node};
use std::collections::HashMap;

/// Simplifies `f` bottom-up; the result is equivalent over infinite
/// words and never larger than the input (DAG-wise, up to sharing).
pub fn simplify(arena: &mut Arena, f: FormulaId) -> FormulaId {
    Simplifier {
        memo: HashMap::new(),
        buf: Vec::new(),
        walk: Vec::new(),
    }
    .go(arena, f)
}

fn is_always(arena: &Arena, f: FormulaId) -> Option<FormulaId> {
    match arena.node(f) {
        Node::Release(a, b) if arena.node(a) == Node::False => Some(b),
        _ => None,
    }
}

fn is_eventually(arena: &Arena, f: FormulaId) -> Option<FormulaId> {
    match arena.node(f) {
        Node::Until(a, b) if arena.node(a) == Node::True => Some(b),
        _ => None,
    }
}

/// Which associative-commutative connective a normalisation runs over.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Op {
    And,
    Or,
}

impl Op {
    /// The operands of `f` if `f` is this connective.
    fn split(self, arena: &Arena, f: FormulaId) -> Option<(FormulaId, FormulaId)> {
        match (self, arena.node(f)) {
            (Op::And, Node::And(a, b)) | (Op::Or, Node::Or(a, b)) => Some((a, b)),
            _ => None,
        }
    }

    fn dual(self) -> Op {
        match self {
            Op::And => Op::Or,
            Op::Or => Op::And,
        }
    }

    /// The absorbing constant (`⊥` for `∧`) and the unit (`⊤` for `∧`).
    fn zero_one(self, arena: &mut Arena) -> (FormulaId, FormulaId) {
        match self {
            Op::And => (arena.fls(), arena.tru()),
            Op::Or => (arena.tru(), arena.fls()),
        }
    }

    /// The modality this connective aggregates over: `□` for `∧`, `◇`
    /// for `∨`.
    fn modal(self, arena: &Arena, f: FormulaId) -> Option<FormulaId> {
        match self {
            Op::And => is_always(arena, f),
            Op::Or => is_eventually(arena, f),
        }
    }

    fn join(self, arena: &mut Arena, a: FormulaId, b: FormulaId) -> FormulaId {
        match self {
            Op::And => arena.and(a, b),
            Op::Or => arena.or(a, b),
        }
    }
}

/// One simplification pass. `buf` holds the operand lists of the
/// normalisations in progress as a stack of segments, and `walk` is
/// the explicit stack for tree walks; both are reused across nodes, so
/// normalising a junction allocates nothing once they have grown.
struct Simplifier {
    memo: HashMap<FormulaId, FormulaId>,
    buf: Vec<FormulaId>,
    walk: Vec<FormulaId>,
}

impl Simplifier {
    fn go(&mut self, arena: &mut Arena, f: FormulaId) -> FormulaId {
        if let Some(&r) = self.memo.get(&f) {
            return r;
        }
        let r = match arena.node(f) {
            Node::True | Node::False | Node::Atom(_) => f,
            Node::Not(g) => {
                let x = self.go(arena, g);
                arena.not(x)
            }
            Node::And(..) => self.junction(arena, f, Op::And),
            Node::Or(..) => self.junction(arena, f, Op::Or),
            Node::Next(g) => {
                let x = self.go(arena, g);
                arena.next(x)
            }
            Node::Until(a, b) => {
                let (x, y) = (self.go(arena, a), self.go(arena, b));
                rebuild_until(arena, x, y)
            }
            Node::Release(a, b) => {
                let (x, y) = (self.go(arena, a), self.go(arena, b));
                rebuild_release(arena, x, y)
            }
            Node::Prev(g) => {
                let x = self.go(arena, g);
                arena.prev(x)
            }
            Node::Since(a, b) => {
                let (x, y) = (self.go(arena, a), self.go(arena, b));
                arena.since(x, y)
            }
        };
        self.memo.insert(f, r);
        r
    }

    /// Simplifies the maximal `op`-tree rooted at `f`: each operand is
    /// simplified on its own, the results' own `op`-trees are spliced
    /// in, and the operand list is normalised.
    fn junction(&mut self, arena: &mut Arena, f: FormulaId, op: Op) -> FormulaId {
        let start = self.buf.len();
        let base = self.walk.len();
        self.walk.push(f);
        while self.walk.len() > base {
            let g = self.walk.pop().expect("walk holds the open operands");
            if let Some((a, b)) = op.split(arena, g) {
                self.walk.push(b);
                self.walk.push(a);
                continue;
            }
            let x = self.go(arena, g);
            self.push_operands(arena, x, op);
        }
        self.normalize(arena, start, op)
    }

    /// Pushes the operands of `f`'s `op`-tree (just `f` if it is not an
    /// `op` node) onto `buf`.
    fn push_operands(&mut self, arena: &Arena, f: FormulaId, op: Op) {
        let base = self.walk.len();
        self.walk.push(f);
        while self.walk.len() > base {
            let g = self.walk.pop().expect("walk holds the open operands");
            match op.split(arena, g) {
                Some((a, b)) => {
                    self.walk.push(b);
                    self.walk.push(a);
                }
                None => self.buf.push(g),
            }
        }
    }

    /// Sorts and deduplicates `buf[start..]` in place.
    fn sort_dedup(&mut self, start: usize) {
        let seg = &mut self.buf[start..];
        seg.sort_unstable();
        let mut w = 0;
        for r in 0..seg.len() {
            if w == 0 || seg[r] != seg[w - 1] {
                seg[w] = seg[r];
                w += 1;
            }
        }
        self.buf.truncate(start + w);
    }

    /// Drops from the sorted segment `buf[start..end]` every operand
    /// listed in the sorted tail `buf[end..]`, and removes the tail.
    fn drop_listed(&mut self, start: usize, end: usize) {
        let mut w = start;
        for r in start..end {
            let x = self.buf[r];
            if self.buf[end..].binary_search(&x).is_err() {
                self.buf[w] = x;
                w += 1;
            }
        }
        self.buf.truncate(w);
    }

    /// Normalises the operand list `buf[start..]` of an `op`-junction
    /// (each operand already simplified, none an `op` node), truncates
    /// `buf` back to `start`, and returns the folded junction.
    fn normalize(&mut self, arena: &mut Arena, start: usize, op: Op) -> FormulaId {
        let (zero, one) = op.zero_one(arena);
        // Aggregate the modal operands (`□` under `∧`, `◇` under `∨`)
        // and the `○` operands into one each, normalising their bodies
        // recursively.
        self.aggregate(
            arena,
            start,
            op,
            |ar, g| op.modal(ar, g),
            |ar, x| match op {
                Op::And => rebuild_release(ar, zero, x),
                Op::Or => rebuild_until(ar, zero, x),
            },
        );
        self.aggregate(
            arena,
            start,
            op,
            |ar, g| match ar.node(g) {
                Node::Next(h) => Some(h),
                _ => None,
            },
            |ar, x| ar.next(x),
        );
        self.sort_dedup(start);
        let end = self.buf.len();
        if self.buf[start..end].contains(&zero) {
            self.buf.truncate(start);
            return zero;
        }
        // Complementary operands: `a ∧ ¬a = ⊥`, `a ∨ ¬a = ⊤`.
        for i in start..end {
            if let Node::Not(g) = arena.node(self.buf[i]) {
                if self.buf[start..end].binary_search(&g).is_ok() {
                    self.buf.truncate(start);
                    return zero;
                }
            }
        }
        // Temporal absorption: an operand that is also an operand of
        // the aggregated modality's body is implied by (∧) or implies
        // (∨) the modal operand.
        if let Some(m) = self.buf[start..end]
            .iter()
            .copied()
            .find(|&g| op.modal(arena, g).is_some())
        {
            let body = op.modal(arena, m).expect("found as modal");
            self.push_operands(arena, body, op);
            self.sort_dedup(end);
            self.drop_listed(start, end);
        }
        // Boolean absorption: `a ∧ (a ∨ b) = a` (dually for `∨`). A
        // dual operand is never a dual operand's operand, so listing
        // the drops first and removing them afterwards is exact.
        let end = self.buf.len();
        let dual = op.dual();
        for i in start..end {
            let g = self.buf[i];
            if dual.split(arena, g).is_none() {
                continue;
            }
            let tail = self.buf.len();
            self.push_operands(arena, g, dual);
            let absorbed = (tail..self.buf.len())
                .any(|j| self.buf[start..end].binary_search(&self.buf[j]).is_ok());
            self.buf.truncate(tail);
            if absorbed {
                self.buf.push(g);
            }
        }
        self.drop_listed(start, end);
        let mut acc = one;
        for i in start..self.buf.len() {
            acc = op.join(arena, acc, self.buf[i]);
        }
        self.buf.truncate(start);
        acc
    }

    /// Replaces the operands of `buf[start..]` that `unwrap` recognises
    /// (at least two of them) with one operand: `wrap` applied to the
    /// normalised `op`-junction of their bodies.
    fn aggregate(
        &mut self,
        arena: &mut Arena,
        start: usize,
        op: Op,
        unwrap: impl Fn(&Arena, FormulaId) -> Option<FormulaId>,
        wrap: impl Fn(&mut Arena, FormulaId) -> FormulaId,
    ) {
        let end = self.buf.len();
        let n = self.buf[start..end]
            .iter()
            .filter(|&&g| unwrap(arena, g).is_some())
            .count();
        if n < 2 {
            return;
        }
        let body_start = end;
        for i in start..end {
            if let Some(h) = unwrap(arena, self.buf[i]) {
                self.push_operands(arena, h, op);
            }
        }
        let body = self.normalize(arena, body_start, op);
        let mut w = start;
        for r in start..end {
            let g = self.buf[r];
            if unwrap(arena, g).is_none() {
                self.buf[w] = g;
                w += 1;
            }
        }
        self.buf.truncate(w);
        let joined = wrap(arena, body);
        self.push_operands(arena, joined, op);
    }
}

fn rebuild_until(arena: &mut Arena, x: FormulaId, y: FormulaId) -> FormulaId {
    // ◇◇f = ◇f and generally f U (f U g) = f U g.
    if let Node::Until(a2, _) = arena.node(y) {
        if a2 == x {
            return y;
        }
    }
    // ◇□◇f = □◇f (via ⊤ U (⊥ R (⊤ U f))).
    if arena.node(x) == Node::True {
        if let Some(inner) = is_always(arena, y) {
            if is_eventually(arena, inner).is_some() {
                return y;
            }
        }
    }
    arena.until(x, y)
}

fn rebuild_release(arena: &mut Arena, x: FormulaId, y: FormulaId) -> FormulaId {
    // □□f = □f and generally f R (f R g) = f R g.
    if let Node::Release(a2, _) = arena.node(y) {
        if a2 == x {
            return y;
        }
    }
    // □◇□f = ◇□f.
    if arena.node(x) == Node::False {
        if let Some(inner) = is_eventually(arena, y) {
            if is_always(arena, inner).is_some() {
                return y;
            }
        }
    }
    arena.release(x, y)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idempotent_boxes_collapse() {
        let mut ar = Arena::new();
        let p = ar.atom("p");
        let g1 = ar.always(p);
        let g2 = ar.always(g1);
        let g3 = ar.always(g2);
        assert_eq!(simplify(&mut ar, g3), g1);
        let f1 = ar.eventually(p);
        let f2 = ar.eventually(f1);
        assert_eq!(simplify(&mut ar, f2), f1);
    }

    #[test]
    fn boxes_aggregate_over_and() {
        let mut ar = Arena::new();
        let p = ar.atom("p");
        let q = ar.atom("q");
        let gp = ar.always(p);
        let gq = ar.always(q);
        let conj = ar.and(gp, gq);
        let pq = ar.and(p, q);
        let expect = ar.always(pq);
        assert_eq!(simplify(&mut ar, conj), expect);
    }

    #[test]
    fn diamonds_aggregate_over_or() {
        let mut ar = Arena::new();
        let p = ar.atom("p");
        let q = ar.atom("q");
        let fp = ar.eventually(p);
        let fq = ar.eventually(q);
        let disj = ar.or(fp, fq);
        let pq = ar.or(p, q);
        let expect = ar.eventually(pq);
        assert_eq!(simplify(&mut ar, disj), expect);
    }

    #[test]
    fn next_distributes() {
        let mut ar = Arena::new();
        let p = ar.atom("p");
        let q = ar.atom("q");
        let xp = ar.next(p);
        let xq = ar.next(q);
        let conj = ar.and(xp, xq);
        let pq = ar.and(p, q);
        let expect = ar.next(pq);
        assert_eq!(simplify(&mut ar, conj), expect);
    }

    #[test]
    fn temporal_absorption() {
        let mut ar = Arena::new();
        let p = ar.atom("p");
        let gp = ar.always(p);
        let both = ar.and(p, gp);
        assert_eq!(simplify(&mut ar, both), gp);
        let fp = ar.eventually(p);
        let either = ar.or(p, fp);
        assert_eq!(simplify(&mut ar, either), fp);
    }

    #[test]
    fn gfg_and_fgf_collapse() {
        let mut ar = Arena::new();
        let p = ar.atom("p");
        let fp = ar.eventually(p);
        let gfp = ar.always(fp);
        let fgfp = ar.eventually(gfp);
        assert_eq!(simplify(&mut ar, fgfp), gfp, "◇□◇p = □◇p");
        let gp = ar.always(p);
        let fgp = ar.eventually(gp);
        let gfgp = ar.always(fgp);
        assert_eq!(simplify(&mut ar, gfgp), fgp, "□◇□p = ◇□p");
    }

    #[test]
    fn boolean_absorption() {
        let mut ar = Arena::new();
        let p = ar.atom("p");
        let q = ar.atom("q");
        let pq = ar.or(p, q);
        let f = ar.and(p, pq);
        assert_eq!(simplify(&mut ar, f), p);
        let pq2 = ar.and(p, q);
        let g = ar.or(p, pq2);
        assert_eq!(simplify(&mut ar, g), p);
    }

    #[test]
    fn duplicate_conjunct_in_two_and_trees_collapses() {
        // (a ∧ b) ∧ (c ∧ a) and (b ∧ c) ∧ a are one ACI class: both
        // normalise to the same node, with `a` kept once.
        let mut ar = Arena::new();
        let a = ar.atom("a");
        let b = ar.atom("b");
        let c = ar.atom("c");
        let ab = ar.and(a, b);
        let ca = ar.and(c, a);
        let left = ar.and(ab, ca);
        let bc = ar.and(b, c);
        let right = ar.and(bc, a);
        let (sl, sr) = (simplify(&mut ar, left), simplify(&mut ar, right));
        assert_eq!(sl, sr);
        assert_eq!(ar.tree_size(sl), 5, "{}", ar.display(sl));
        // The same holds for ∨, and under a temporal operator.
        let ab = ar.or(a, b);
        let ca = ar.or(c, a);
        let left = ar.or(ab, ca);
        let bc = ar.or(b, c);
        let right = ar.or(bc, a);
        let (xl, xr) = (ar.next(left), ar.next(right));
        assert_eq!(simplify(&mut ar, xl), simplify(&mut ar, xr));
    }

    #[test]
    fn aggregation_normalises_box_bodies() {
        // □(a ∧ b) ∧ (□b ∧ a) = □(a ∧ b): bodies merge, `a` is absorbed.
        let mut ar = Arena::new();
        let a = ar.atom("a");
        let b = ar.atom("b");
        let ab = ar.and(a, b);
        let gab = ar.always(ab);
        let gb = ar.always(b);
        let rest = ar.and(gb, a);
        let f = ar.and(gab, rest);
        let expect = simplify(&mut ar, gab);
        assert_eq!(simplify(&mut ar, f), expect);
    }

    #[test]
    fn complements_meet_across_the_tree() {
        let mut ar = Arena::new();
        let a = ar.atom("a");
        let b = ar.atom("b");
        let na = ar.not(a);
        let ab = ar.and(a, b);
        let f = ar.and(ab, na);
        assert_eq!(simplify(&mut ar, f), ar.fls());
        let ab = ar.or(a, b);
        let g = ar.or(ab, na);
        assert_eq!(simplify(&mut ar, g), ar.tru());
    }

    #[test]
    fn past_traversed_untouched() {
        let mut ar = Arena::new();
        let p = ar.atom("p");
        let gp = ar.always(p);
        let ggp = ar.always(gp);
        let s = ar.since(ggp, p);
        let gp2 = ar.always(p);
        let expect = ar.since(gp2, p);
        assert_eq!(simplify(&mut ar, s), expect, "□□ collapses under since");
    }
}

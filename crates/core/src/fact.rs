//! One encoding pass per transaction, shared by every constraint.
//!
//! The engine computes each transaction's net effect once — the
//! touched facts in sorted `(pred, tuple)` order, the last update of a
//! fact winning, as [`Transaction::apply_to`] applies them — and
//! resolves each net fact to an engine-wide **fact id** with one keyed
//! lookup in the [`FactTable`]. Every grounding context reads that list:
//! its growth gate and its state patch map a fact id to the context's
//! own letter through a dense [`FactMemo`], so a steady append costs one
//! hash probe per update for the whole engine and an array index per
//! update and constraint.
//!
//! The table hashes with std's keyed SipHash: tenants' values arrive
//! off the wire, and an unkeyed hasher would let one tenant flood its
//! shard. Table and memos are derived state. Snapshots carry neither,
//! and a restored engine fills them again as facts arrive.

use std::collections::HashMap;
use ticc_ptl::arena::AtomId;
use ticc_tdb::{PredId, Transaction, Update, Value};

/// The fact id of a net delete of a fact the table never saw inserted:
/// no memo holds it, so a context resolves it through its interner.
const NO_FACT: u32 = u32::MAX;

/// [`FactMemo`]'s entry for a fact id the context has not resolved.
const UNRESOLVED: u32 = u32::MAX;

/// One net update of a transaction: which update (its index in the
/// transaction) carries the fact, whether the fact is present after the
/// transaction, and its fact id.
#[derive(Clone, Copy, Debug)]
pub(crate) struct NetFact {
    upd: u32,
    present: bool,
    fact: u32,
}

/// A transaction's net effect, as [`FactTable::net_into`] computed it.
#[derive(Clone, Copy)]
pub(crate) struct Net<'a> {
    tx: &'a Transaction,
    facts: &'a [NetFact],
}

impl<'a> Net<'a> {
    /// The net effect `facts` of `tx`.
    pub(crate) fn new(tx: &'a Transaction, facts: &'a [NetFact]) -> Self {
        Net { tx, facts }
    }

    /// Each net fact as `(pred, tuple, present, fact id)`, in sorted
    /// `(pred, tuple)` order.
    pub(crate) fn iter(self) -> impl Iterator<Item = (PredId, &'a [Value], bool, u32)> {
        let updates = self.tx.updates();
        self.facts.iter().map(move |f| {
            let (p, tuple) = update_key(&updates[f.upd as usize]);
            (p, tuple, f.present, f.fact)
        })
    }
}

/// The `(pred, tuple)` sort key of an update.
fn update_key(u: &Update) -> (PredId, &[Value]) {
    match u {
        Update::Insert(p, t) | Update::Delete(p, t) => (*p, t.as_slice()),
    }
}

/// The engine-wide `(pred, tuple) → fact id` table. Ids are dense and
/// handed out in first-insert order; a fact is only ever deleted by id
/// once it has been inserted, so deletes of unknown facts do not grow
/// the table.
#[derive(Default)]
pub(crate) struct FactTable {
    /// One map per predicate, indexed by `PredId`.
    ids: Vec<HashMap<Vec<Value>, u32>>,
    len: u32,
}

impl FactTable {
    /// Appends `tx`'s net effect to `out`: one [`NetFact`] per touched
    /// fact, sorted by `(pred, tuple)`, the last update winning, each
    /// resolved to its fact id (a net insert of a new fact takes the
    /// next id). Allocation-free once `out` has grown to the workload's
    /// transaction width and every fact has been seen.
    pub(crate) fn net_into(&mut self, tx: &Transaction, out: &mut Vec<NetFact>) {
        let updates = tx.updates();
        let start = out.len();
        out.extend(updates.iter().enumerate().map(|(i, u)| NetFact {
            upd: i as u32,
            present: matches!(u, Update::Insert(..)),
            fact: NO_FACT,
        }));
        let net = &mut out[start..];
        // Unstable sort (no temp-buffer allocation) made stable by the
        // index tie-break, so equal keys keep update order for the
        // last-wins dedup below.
        net.sort_unstable_by(|a, b| {
            update_key(&updates[a.upd as usize])
                .cmp(&update_key(&updates[b.upd as usize]))
                .then(a.upd.cmp(&b.upd))
        });
        let mut w = 0usize;
        for r in 0..net.len() {
            if w > 0
                && update_key(&updates[net[w - 1].upd as usize])
                    == update_key(&updates[net[r].upd as usize])
            {
                net[w - 1] = net[r];
            } else {
                net[w] = net[r];
                w += 1;
            }
        }
        out.truncate(start + w);
        for f in &mut out[start..] {
            let (p, tuple) = update_key(&updates[f.upd as usize]);
            f.fact = self.id(p, tuple, f.present);
        }
    }

    /// The id of fact `p(tuple)`; a new fact gets the next id when it
    /// is inserted, and [`NO_FACT`] when it is deleted.
    fn id(&mut self, p: PredId, tuple: &[Value], insert: bool) -> u32 {
        if let Some(&id) = self.ids.get(p.index()).and_then(|m| m.get(tuple)) {
            return id;
        }
        if !insert || self.len == NO_FACT {
            return NO_FACT;
        }
        if p.index() >= self.ids.len() {
            self.ids.resize_with(p.index() + 1, HashMap::new);
        }
        let id = self.len;
        self.len += 1;
        self.ids[p.index()].insert(tuple.to_vec(), id);
        id
    }

    /// `tx`'s net effect as an owned list ([`FactTable::net_into`]).
    #[cfg(test)]
    pub(crate) fn net(&mut self, tx: &Transaction) -> Vec<NetFact> {
        let mut out = Vec::new();
        self.net_into(tx, &mut out);
        out
    }
}

/// One grounding's fact id → letter memo, dense over the fact ids it
/// has resolved. The grounding fills it for the facts it has seen
/// net-inserted after their growth, so an entry also says that the fact
/// is over `M` and, under the indexed strategy, indexed as occurring.
#[derive(Default)]
pub(crate) struct FactMemo {
    letters: Vec<u32>,
    resolved: usize,
}

impl FactMemo {
    /// The letter memoised for `fact`.
    #[inline]
    pub(crate) fn get(&self, fact: u32) -> Option<AtomId> {
        match self.letters.get(fact as usize) {
            Some(&a) if a != UNRESOLVED => Some(AtomId(a)),
            _ => None,
        }
    }

    /// Memoises `a` as `fact`'s letter (nothing for [`NO_FACT`]).
    pub(crate) fn set(&mut self, fact: u32, a: AtomId) {
        if fact == NO_FACT {
            return;
        }
        let i = fact as usize;
        if i >= self.letters.len() {
            self.letters.resize(i + 1, UNRESOLVED);
        }
        if self.letters[i] == UNRESOLVED {
            self.resolved += 1;
        }
        self.letters[i] = a.0;
    }

    /// The number of fact ids resolved to a letter.
    pub(crate) fn len(&self) -> usize {
        self.resolved
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ticc_tdb::Schema;

    #[test]
    fn net_effect_sorts_dedups_and_ids_inserted_facts() {
        let sc = Schema::builder().pred("Sub", 1).pred("Fill", 1).build();
        let (sub, fill) = (sc.pred("Sub").unwrap(), sc.pred("Fill").unwrap());
        let mut table = FactTable::default();
        let tx = Transaction::new()
            .insert(fill, vec![2])
            .insert(sub, vec![1])
            .delete(sub, vec![7])
            .insert(sub, vec![3])
            .delete(sub, vec![3]);
        let facts = table.net(&tx);
        let net: Vec<_> = Net::new(&tx, &facts)
            .iter()
            .map(|(p, t, present, f)| (p, t.to_vec(), present, f))
            .collect();
        assert_eq!(
            net,
            vec![
                (sub, vec![1], true, 0),
                // Inserted, then deleted: net absent, never inserted.
                (sub, vec![3], false, NO_FACT),
                (sub, vec![7], false, NO_FACT),
                (fill, vec![2], true, 1),
            ]
        );
        // Ids are stable; a delete of a known fact carries its id.
        let tx = Transaction::new()
            .delete(fill, vec![2])
            .insert(sub, vec![3]);
        let facts = table.net(&tx);
        let ids: Vec<u32> = Net::new(&tx, &facts).iter().map(|f| f.3).collect();
        assert_eq!(ids, vec![2, 1]);
    }

    #[test]
    fn memo_counts_resolved_ids() {
        let mut memo = FactMemo::default();
        assert_eq!(memo.get(3), None);
        memo.set(3, AtomId(9));
        memo.set(3, AtomId(9));
        memo.set(NO_FACT, AtomId(1));
        assert_eq!(
            (memo.get(3), memo.get(0), memo.len()),
            (Some(AtomId(9)), None, 1)
        );
        assert_eq!(memo.get(NO_FACT), None);
    }
}

//! Structured-key atom interning.
//!
//! The [`Arena`] interns atoms by *name*; every
//! consumer that derives its propositional vocabulary from structured
//! data (the grounding's `p(a⃗)` and `(a=b)` letters, the tdb state
//! encoding) used to keep its own ad-hoc `HashMap<(…), AtomId>` next to
//! the arena and render a name string even on lookup hits. An
//! [`AtomInterner`] replaces those: it maps a typed key to the interned
//! [`AtomId`] and renders the display name only on the first sighting
//! of a key, so steady-state lookups never allocate.
//!
//! The interner does not own an arena — it is a key index *over* one —
//! so several interners with different key types can share a single
//! arena, and the arena remains the sole authority on ids.

use crate::arena::{Arena, AtomId};
use std::collections::HashMap;
use std::hash::Hash;

/// A typed key → [`AtomId`] index over an [`Arena`].
///
/// `K` is the structured key (e.g. a `(PredId, Vec<GArg>)` pair); the
/// rendered name is produced by the closure passed to [`intern`]
/// (called only for keys not seen before).
///
/// [`intern`]: AtomInterner::intern
#[derive(Debug, Clone, Default)]
pub struct AtomInterner<K> {
    map: HashMap<K, AtomId>,
}

impl<K: Eq + Hash + Clone> AtomInterner<K> {
    /// An empty interner.
    pub fn new() -> Self {
        Self {
            map: HashMap::new(),
        }
    }

    /// The id for `key`, interning `render(&key)` into `arena` on first
    /// sight. Stable: the same key always returns the same id.
    pub fn intern(
        &mut self,
        arena: &mut Arena,
        key: K,
        render: impl FnOnce(&K) -> String,
    ) -> AtomId {
        if let Some(&id) = self.map.get(&key) {
            return id;
        }
        let name = render(&key);
        let id = arena.intern_atom(&name);
        self.map.insert(key, id);
        id
    }

    /// Rebuilds an interner from explicit `(key, id)` pairs — the
    /// restore half of a durable snapshot, where the pairs come from
    /// [`iter`](Self::iter) (serialised in id order) and the ids
    /// reference an arena rebuilt with `Arena::rehydrate`. Duplicate
    /// keys are rejected; id validity is the caller's contract with
    /// the arena dump.
    pub fn from_pairs(pairs: impl IntoIterator<Item = (K, AtomId)>) -> Result<Self, &'static str> {
        let mut map = HashMap::new();
        for (key, id) in pairs {
            if map.insert(key, id).is_some() {
                return Err("duplicate key in interner dump");
            }
        }
        Ok(Self { map })
    }

    /// The id for `key`, if it has been interned.
    pub fn get(&self, key: &K) -> Option<AtomId> {
        self.map.get(key).copied()
    }

    /// Number of interned keys.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether no key has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// All `(key, id)` pairs, in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, AtomId)> {
        self.map.iter().map(|(k, &v)| (k, v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interns_once_per_key() {
        let mut arena = Arena::new();
        let mut it: AtomInterner<(u32, Vec<u64>)> = AtomInterner::new();
        let mut renders = 0;
        let a = it.intern(&mut arena, (0, vec![1, 2]), |_| {
            renders += 1;
            "P(1,2)".into()
        });
        let b = it.intern(&mut arena, (0, vec![1, 2]), |_| {
            renders += 1;
            "P(1,2)".into()
        });
        assert_eq!(a, b);
        assert_eq!(renders, 1, "render runs only on first sight");
        assert_eq!(it.len(), 1);
        assert_eq!(arena.atom_count(), 1);
    }

    #[test]
    fn distinct_keys_distinct_ids() {
        let mut arena = Arena::new();
        let mut it: AtomInterner<u32> = AtomInterner::new();
        let a = it.intern(&mut arena, 1, |k| format!("p{k}"));
        let b = it.intern(&mut arena, 2, |k| format!("p{k}"));
        assert_ne!(a, b);
        assert_eq!(it.get(&1), Some(a));
        assert_eq!(it.get(&3), None);
    }

    #[test]
    fn shares_an_arena_with_other_interners() {
        // Two interners with different key types over one arena: ids
        // stay globally unique because the arena assigns them.
        let mut arena = Arena::new();
        let mut preds: AtomInterner<(u32, Vec<u64>)> = AtomInterner::new();
        let mut eqs: AtomInterner<(u64, u64)> = AtomInterner::new();
        let p = preds.intern(&mut arena, (0, vec![7]), |_| "P(7)".into());
        let e = eqs.intern(&mut arena, (7, 7), |_| "(7=7)".into());
        assert_ne!(p, e);
        assert_eq!(arena.atom_count(), 2);
    }

    #[test]
    fn iter_exposes_all_pairs() {
        let mut arena = Arena::new();
        let mut it: AtomInterner<u8> = AtomInterner::new();
        for k in 0..5u8 {
            it.intern(&mut arena, k, |k| format!("a{k}"));
        }
        let mut keys: Vec<u8> = it.iter().map(|(k, _)| *k).collect();
        keys.sort_unstable();
        assert_eq!(keys, vec![0, 1, 2, 3, 4]);
        assert!(!it.is_empty());
    }

    #[test]
    fn agrees_with_arena_name_lookup() {
        let mut arena = Arena::new();
        let mut it: AtomInterner<u32> = AtomInterner::new();
        let id = it.intern(&mut arena, 9, |_| "Sub(9)".into());
        assert_eq!(arena.find_atom("Sub(9)"), Some(id));
        assert_eq!(arena.atom_name(id), "Sub(9)");
    }
}

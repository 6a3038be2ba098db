//! Seed units: how a growing `Ψ_D` gains instantiations without
//! grounding or replaying them.
//!
//! Theorem 4.1 grounds over `M = R_D ∪ {z_1, …, z_k}` because, by
//! genericity, an element not yet seen behaves like a `z_i`. So after a
//! prefix, the instantiation `ψ[a⃗, n]` for an element `n` that first
//! occurs at the current instant is `ψ[a⃗, z]` renamed `z → n`: every
//! letter mentioning `n` was false at every earlier instant, exactly as
//! a letter of an element outside `M` is.
//!
//! A *seed* is that `ψ[a⃗, z]`: an instantiation binding at least one
//! external variable to a placeholder, each placeholder standing for a
//! distinct element outside `M` (numbered by first occurrence, so `(z1,
//! z1)` and `(z1, z2)` are the two equality patterns of two
//! placeholders). Its `∧`-parts run the same template automata as the
//! engine's units, with the placeholder letters ([`HoleLetter`]s)
//! interned nowhere and so false in every column. Seeds stay outside
//! the owner chains, the active set, the verdict counters and the joint
//! phase-2 test: they decide nothing, and they step only when their
//! context grows, catching up from the instant they last reached
//! ([`Seeds::catch_up`]). An append that does not grow `Ψ_D` never
//! touches them.
//!
//! A growth then binds each new instantiation by copying its seed's
//! states before the growing instant and renaming the placeholder
//! letters to the new element's ([`Seeds::grow`]); the engine steps it
//! at that instant with its own column like every other unit. Under the
//! indexed strategy an instantiation whose letters all stayed false
//! until now — one the first-occurring tuples activate, or a new
//! element's that no old tuple supports — binds from the generic seed
//! of its equality pattern (every concrete element a placeholder), as
//! its state is the template's run on the all-false column. A growth
//! that may later ask for a seed over an old element
//! ([`Grounding::flags_old`]: always under the odometer, and under the
//! indexed strategy when a pattern leaves a variable open) also creates
//! the seeds that mention its new elements, by renaming the seeds with
//! more placeholders ([`Seeds::spawn`]). So only the seeds a context
//! starts from are built by grounding and replaying over the stored
//! prefix: the generic ones when the context first grows (and again
//! after a restore, since snapshots do not carry them), and one over
//! elements known before that growth when an instantiation first needs
//! it.
//!
//! A seed binding holds digits into `M` and placeholders `HOLE + i`
//! ([`HOLE`]); a placeholder is grounded as a stand-in value outside
//! `M`, and its letters become [`HoleLetter`]s, whose support entry is
//! [`NO_LETTER`]. This module alone reads and writes that format.

use crate::engine::{col_of, edge, for_each_stored_state, replay, stored_len, Cold, CompiledSet};
use crate::error::Error;
use crate::ground::{GArg, Grounding, Growth};
use crate::obs::{EngineStats, Timer};
use std::collections::HashMap;
use std::ops::Range;
use ticc_ptl::arena::AtomId;
use ticc_ptl::trace::PropState;
use ticc_tdb::{PredId, Value};

/// Offset of placeholder digits in a seed binding: a digit below it
/// is a position in `M`, `HOLE + i` is placeholder `i`. Placeholders
/// are numbered by first occurrence, so equal placeholders stand for
/// one element and distinct ones for distinct elements.
const HOLE: u32 = u32::MAX - 64;

/// The support entry of a placeholder letter: no letter of the
/// grounding, so every state leaves it false.
const NO_LETTER: AtomId = AtomId(u32::MAX);

/// An argument of a [`HoleLetter`], or what a renaming names a
/// placeholder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum HArg {
    /// A concrete value.
    Val(Value),
    /// Placeholder `i` of the seed.
    Hole(u8),
}

/// A seed part's support letter that mentions a placeholder: support
/// bit `bit` stands for `pred(args)`. Naming an element for every
/// placeholder makes it a letter of the grounding.
#[derive(Debug, Clone, PartialEq, Eq)]
struct HoleLetter {
    bit: u8,
    pred: PredId,
    args: Vec<HArg>,
}

/// One `∧`-part of a seed: its template, its state, its support
/// ([`NO_LETTER`] at placeholder letters) and its placeholder letters.
struct SeedUnit {
    tmpl: u32,
    state: u32,
    support: Vec<AtomId>,
    holes: Vec<HoleLetter>,
}

struct Seed {
    /// Digits into `M`, and placeholders `HOLE + i`.
    binding: Vec<u32>,
    /// Number of distinct placeholders.
    holes: u8,
    /// The seed's parts in [`Seeds::units`].
    units: Range<usize>,
}

/// A production context's seeds, all stepped through the same stored
/// instants.
pub(crate) struct Seeds {
    /// Binding → index into `seeds`.
    index: HashMap<Vec<u32>, u32>,
    seeds: Vec<Seed>,
    units: Vec<SeedUnit>,
    /// The stored instants every seed has taken.
    at: usize,
    scratch: Scratch,
    /// Instantiations bound by their own grounding and replay, as no
    /// seed gives them.
    #[cfg(any(test, feature = "reference"))]
    pub(crate) seedless: u64,
}

/// Buffers [`Seeds::grow`] reuses across the instantiations it binds.
#[derive(Default)]
struct Scratch {
    binding: Vec<u32>,
    /// What each placeholder of `binding` is renamed to.
    targets: Vec<HArg>,
    tuple: Vec<Value>,
    /// Renamed supports, one part after the other.
    support: Vec<AtomId>,
    /// The placeholder letters a renaming leaves, each with its part's
    /// index in the seed.
    holes: Vec<(usize, HoleLetter)>,
    /// The parts a growth binds, `(template, state, support length)`,
    /// their supports in `support` in the same order.
    staged: Vec<(u32, u32, usize)>,
}

/// Every binding of `k` variables over the digits `0..len` and
/// placeholders (numbered by first occurrence) with at least one
/// placeholder.
fn bindings(k: usize, len: u32, out: &mut Vec<Vec<u32>>) {
    fn rec(b: &mut Vec<u32>, holes: u32, k: usize, len: u32, out: &mut Vec<Vec<u32>>) {
        if b.len() == k {
            if holes > 0 {
                out.push(b.clone());
            }
            return;
        }
        for d in 0..len {
            b.push(d);
            rec(b, holes, k, len, out);
            b.pop();
        }
        for h in 0..=holes {
            b.push(HOLE + h);
            rec(b, holes.max(h + 1), k, len, out);
            b.pop();
        }
    }
    rec(&mut Vec::with_capacity(k), 0, k, len, out);
}

impl Seeds {
    /// The seeds of the generic bindings — every concrete position a
    /// placeholder, the others `M`'s own `z_i` — brought up to the `t`
    /// stored instants by grounding and replay.
    fn generic(
        set: &mut CompiledSet,
        g: &mut Grounding,
        cold: Cold<'_>,
        t: usize,
        stats: &mut EngineStats,
    ) -> Result<Seeds, Error> {
        let mut seeds = Seeds {
            index: HashMap::new(),
            seeds: Vec::new(),
            units: Vec::new(),
            at: t,
            scratch: Scratch::default(),
            #[cfg(any(test, feature = "reference"))]
            seedless: 0,
        };
        let fresh: Vec<u32> = (0..g.m.len() as u32)
            .filter(|&d| matches!(g.m[d as usize], GArg::Fresh(_)))
            .collect();
        let mut all = Vec::new();
        bindings(g.external_len(), fresh.len() as u32, &mut all);
        for b in &mut all {
            for d in b.iter_mut().filter(|d| **d < HOLE) {
                *d = fresh[*d as usize];
            }
        }
        for b in all {
            seeds.ground(set, g, b, cold, t, stats)?;
        }
        Ok(seeds)
    }

    /// Grounds the seed of `binding` and replays it over the `t` stored
    /// instants; returns its index.
    fn ground(
        &mut self,
        set: &mut CompiledSet,
        g: &mut Grounding,
        binding: Vec<u32>,
        cold: Cold<'_>,
        t: usize,
        stats: &mut EngineStats,
    ) -> Result<u32, Error> {
        let units = ground_replayed(set, g, &binding, cold, t, stats)?;
        let start = self.units.len();
        self.units.extend(units);
        Ok(self.push(binding, start..self.units.len()))
    }

    fn push(&mut self, binding: Vec<u32>, units: Range<usize>) -> u32 {
        let s = self.seeds.len() as u32;
        let holes = binding.iter().filter_map(|d| d.checked_sub(HOLE)).max();
        self.index.insert(binding.clone(), s);
        self.seeds.push(Seed {
            binding,
            holes: holes.map_or(0, |h| h as u8 + 1),
            units,
        });
        s
    }

    /// Advances every seed over the stored instants from `at` to `t`.
    /// A part none of whose letters held in that stretch — most of
    /// them: placeholder letters never hold, and few elements' letters
    /// change between two growths — sees the all-false column
    /// throughout, a constant-column run that stops at the first
    /// self-loop. The others replay the stretch through [`replay`],
    /// spilled instants included.
    fn catch_up(
        &mut self,
        set: &mut CompiledSet,
        g: &mut Grounding,
        cold: Cold<'_>,
        t: usize,
        stats: &mut EngineStats,
    ) -> Result<(), Error> {
        let Some(n) = t.checked_sub(self.at).filter(|&n| n > 0) else {
            return Ok(());
        };
        let mut held: Vec<u64> = Vec::new();
        for_each_stored_state(g, cold, self.at, |w| {
            let words = w.words();
            if held.len() < words.len() {
                held.resize(words.len(), 0);
            }
            for (h, &x) in held.iter_mut().zip(words) {
                *h |= x;
            }
        })?;
        let held = PropState::from_words(held);
        let (reads, blind): (Vec<usize>, Vec<usize>) = (0..self.units.len())
            .partition(|&i| self.units[i].support.iter().any(|&a| held.get(a)));
        if !reads.is_empty() {
            let runs: Vec<(u32, &[AtomId])> = reads
                .iter()
                .map(|&i| (self.units[i].tmpl, &self.units[i].support[..]))
                .collect();
            let mut states: Vec<u32> = reads.iter().map(|&i| self.units[i].state).collect();
            replay(
                &mut set.templates,
                &runs,
                &mut states,
                g,
                cold,
                self.at,
                &mut stats.cache,
            )?;
            for (&i, state) in reads.iter().zip(states) {
                self.units[i].state = state;
            }
        }
        for i in blind {
            let unit = &mut self.units[i];
            let auto = &mut set.templates[unit.tmpl as usize];
            for _ in 0..n {
                let next = edge(auto, unit.state, 0, &mut stats.cache);
                if next == unit.state {
                    break;
                }
                unit.state = next;
            }
        }
        stats.replay_steps += (self.seeds.len() * n) as u64;
        self.at = t;
        Ok(())
    }

    /// Renames seed `s`'s parts, placeholder `i` to
    /// `scratch.targets[i]`, appending their supports to
    /// `scratch.support`: a placeholder letter whose placeholders all
    /// name values becomes that letter of the grounding (interned on
    /// first sight), and one that still names a placeholder keeps its
    /// [`NO_LETTER`] entry and is listed in `scratch.holes`. `false`
    /// when two letters of one renamed support coincide — an element
    /// equal to a value the matrix names — and the renamed part is not
    /// a unit; `scratch.support` is then left as it was.
    fn rename(&mut self, g: &mut Grounding, s: u32) -> bool {
        let Scratch {
            targets,
            tuple,
            support,
            holes,
            ..
        } = &mut self.scratch;
        let start = support.len();
        holes.clear();
        for (p, u) in self.units[self.seeds[s as usize].units.clone()]
            .iter()
            .enumerate()
        {
            let at = support.len();
            support.extend_from_slice(&u.support);
            for h in &u.holes {
                tuple.clear();
                for &a in &h.args {
                    match a {
                        HArg::Hole(i) => match targets[i as usize] {
                            HArg::Val(v) => tuple.push(v),
                            HArg::Hole(_) => break,
                        },
                        HArg::Val(v) => tuple.push(v),
                    }
                }
                if tuple.len() == h.args.len() {
                    support[at + h.bit as usize] = g.state_letter(h.pred, tuple);
                } else {
                    let args = h
                        .args
                        .iter()
                        .map(|&a| match a {
                            HArg::Hole(i) => targets[i as usize],
                            val => val,
                        })
                        .collect();
                    holes.push((
                        p,
                        HoleLetter {
                            bit: h.bit,
                            pred: h.pred,
                            args,
                        },
                    ));
                }
            }
            let sup = &support[at..];
            if (1..sup.len()).any(|i| sup[i] != NO_LETTER && sup[..i].contains(&sup[i])) {
                support.truncate(start);
                return false;
            }
        }
        true
    }

    /// The seed of instantiation `f` (digits into the grown `M`): the
    /// one with every new element a placeholder, or when `seen` is
    /// false (its letters were false at every earlier instant) the
    /// generic one with every concrete element a placeholder. Builds
    /// the seed when missing, and leaves in `scratch.targets` the value
    /// each placeholder names. `None` when `f` has no concrete element
    /// to stand a placeholder for.
    #[allow(clippy::too_many_arguments)]
    fn seed_of(
        &mut self,
        set: &mut CompiledSet,
        g: &mut Grounding,
        f: &[u32],
        seen: bool,
        old_len: usize,
        cold: Cold<'_>,
        t: usize,
        stats: &mut EngineStats,
    ) -> Result<Option<u32>, Error> {
        let Scratch {
            binding, targets, ..
        } = &mut self.scratch;
        binding.clear();
        targets.clear();
        for &d in f {
            match g.m[d as usize] {
                GArg::Rel(v) if !seen || d as usize >= old_len => {
                    let i = targets
                        .iter()
                        .position(|&n| n == HArg::Val(v))
                        .unwrap_or_else(|| {
                            targets.push(HArg::Val(v));
                            targets.len() - 1
                        });
                    binding.push(HOLE + i as u32);
                }
                _ => binding.push(d),
            }
        }
        if targets.is_empty() {
            return Ok(None);
        }
        match self.index.get(&self.scratch.binding[..]) {
            Some(&s) => Ok(Some(s)),
            None => {
                let b = self.scratch.binding.clone();
                self.ground(set, g, b, cold, t, stats).map(Some)
            }
        }
    }

    /// Creates the seeds that mention a new element (digits from
    /// `old_len`): each seed with at least two placeholders, some but
    /// not all of them naming distinct new elements, renamed. The new
    /// seed's state is its source's, which has read every new letter as
    /// false, as it was.
    fn spawn(&mut self, g: &mut Grounding, old_len: usize) {
        let new: Vec<u32> = (old_len as u32..g.m.len() as u32).collect();
        for s in 0..self.seeds.len() as u32 {
            let h = self.seeds[s as usize].holes as usize;
            if h >= 2 {
                self.spawn_from(g, s, &new, &mut vec![None; h], 0);
            }
        }
    }

    /// Enumerates the assignments of seed `s`'s placeholders from
    /// position `i` on (none, or a new element no earlier one names)
    /// and spawns each that names some but not all of them.
    fn spawn_from(
        &mut self,
        g: &mut Grounding,
        s: u32,
        new: &[u32],
        assign: &mut Vec<Option<u32>>,
        i: usize,
    ) {
        if i == assign.len() {
            let named = assign.iter().flatten().count();
            if named > 0 && named < assign.len() {
                self.spawn_one(g, s, assign);
            }
            return;
        }
        self.spawn_from(g, s, new, assign, i + 1);
        for &d in new {
            if !assign[..i].contains(&Some(d)) {
                assign[i] = Some(d);
                self.spawn_from(g, s, new, assign, i + 1);
            }
        }
        assign[i] = None;
    }

    fn spawn_one(&mut self, g: &mut Grounding, s: u32, assign: &[Option<u32>]) {
        // The placeholders left renumber by first occurrence.
        let mut renum = vec![u8::MAX; assign.len()];
        let mut next = 0u8;
        let binding: Vec<u32> = self.seeds[s as usize]
            .binding
            .iter()
            .map(|&d| match d.checked_sub(HOLE) {
                None => d,
                Some(j) => match assign[j as usize] {
                    Some(e) => e,
                    None => {
                        if renum[j as usize] == u8::MAX {
                            renum[j as usize] = next;
                            next += 1;
                        }
                        HOLE + renum[j as usize] as u32
                    }
                },
            })
            .collect();
        self.scratch.targets.clear();
        for (a, &r) in assign.iter().zip(&renum) {
            self.scratch.targets.push(match a {
                Some(e) => match g.m[*e as usize] {
                    GArg::Rel(v) => HArg::Val(v),
                    _ => unreachable!("new elements are concrete"),
                },
                None => HArg::Hole(r),
            });
        }
        self.scratch.support.clear();
        let distinct = self.rename(g, s);
        debug_assert!(distinct, "a new element is no value the matrix names");
        let mut at = 0;
        let units: Vec<SeedUnit> = self.units[self.seeds[s as usize].units.clone()]
            .iter()
            .enumerate()
            .map(|(p, u)| {
                let support = self.scratch.support[at..at + u.support.len()].to_vec();
                at += support.len();
                let holes = self.scratch.holes.iter().filter(|h| h.0 == p);
                SeedUnit {
                    tmpl: u.tmpl,
                    state: u.state,
                    support,
                    holes: holes.map(|h| h.1.clone()).collect(),
                }
            })
            .collect();
        let start = self.units.len();
        self.units.extend(units);
        self.push(binding, start..self.units.len());
    }

    /// Steps every seed at the growing instant, valuation `w`.
    fn step(&mut self, set: &mut CompiledSet, w: &PropState, stats: &mut EngineStats) {
        for u in &mut self.units {
            let col = col_of(Some(w), &u.support);
            u.state = edge(
                &mut set.templates[u.tmpl as usize],
                u.state,
                col,
                &mut stats.cache,
            );
        }
        stats.replay_steps += self.seeds.len() as u64;
        self.at += 1;
    }

    /// Binds the instantiations `growth` adds to `set`, at their states
    /// before the growing instant, columns taken from its valuation `w`;
    /// the append's step then moves them through it with everyone else.
    /// Each comes from its seed ([`Seeds::seed_of`]), after the seeds
    /// catch up to the growing instant; an instantiation no seed can
    /// give is grounded and replayed over the stored prefix instead.
    /// Seeds (`None` until the context first grows, and after a
    /// restore) are built on first need. Ends with the seeds for the
    /// new elements spawned and every seed stepped through the growing
    /// instant, so none of this reruns at the next growth.
    ///
    /// Every read of the stored prefix (catch-up, builds, replays)
    /// comes before the first unit is bound: on an error `set` and the
    /// seeds' parts are as they were, and the seeds have reached the
    /// stored prefix, not the growing instant.
    pub(crate) fn grow(
        seeds: &mut Option<Seeds>,
        set: &mut CompiledSet,
        g: &mut Grounding,
        growth: &Growth,
        w: &PropState,
        cold: Cold<'_>,
        stats: &mut EngineStats,
    ) -> Result<(), Error> {
        if growth.fresh.is_empty() {
            return Ok(());
        }
        let t = stored_len(g, cold);
        if seeds.is_none() {
            *seeds = Some(Seeds::generic(set, g, cold, t, stats)?);
        }
        let seeds = seeds.as_mut().expect("built above");
        seeds.catch_up(set, g, cold, t, stats)?;
        seeds.scratch.support.clear();
        seeds.scratch.staged.clear();
        for (f, seen) in &growth.fresh {
            let seed = seeds.seed_of(set, g, f, *seen, growth.old_len, cold, t, stats)?;
            match seed.filter(|&s| seeds.rename(g, s)) {
                Some(s) => {
                    debug_assert!(seeds.scratch.holes.is_empty(), "every placeholder named");
                    let parts = &seeds.units[seeds.seeds[s as usize].units.clone()];
                    seeds
                        .scratch
                        .staged
                        .extend(parts.iter().map(|u| (u.tmpl, u.state, u.support.len())));
                }
                None => {
                    for u in ground_replayed(set, g, f, cold, t, stats)? {
                        seeds.scratch.support.extend_from_slice(&u.support);
                        seeds
                            .scratch
                            .staged
                            .push((u.tmpl, u.state, u.support.len()));
                    }
                    #[cfg(any(test, feature = "reference"))]
                    {
                        seeds.seedless += 1;
                    }
                }
            }
        }
        let mut at = 0;
        for &(tmpl, state, len) in &seeds.scratch.staged {
            let support = &seeds.scratch.support[at..at + len];
            at += len;
            if !set.templates[tmpl as usize].is_true(state) {
                set.push_unit(tmpl, state, support, Some(w), &mut stats.cache);
            }
        }
        let n = growth.fresh.len() as u64;
        stats.new_conjuncts += n;
        stats.replayed_conjuncts += n;
        if growth.new_elements && g.flags_old() {
            seeds.spawn(g, growth.old_len);
        }
        seeds.step(set, w, stats);
        Ok(())
    }
}

/// The parts of the instantiation `binding` names, grounded and
/// replayed over the `t` stored instants: how seeds are built, and the
/// route for an instantiation no seed gives. Each placeholder is
/// grounded as a stand-in value outside `M`: an element that is new at
/// the append binding this seed is outside `M` as well, so it agrees
/// with every equality and letter its stand-in decides.
fn ground_replayed(
    set: &mut CompiledSet,
    g: &mut Grounding,
    binding: &[u32],
    cold: Cold<'_>,
    t: usize,
    stats: &mut EngineStats,
) -> Result<Vec<SeedUnit>, Error> {
    let timer = Timer::start();
    let holes = binding
        .iter()
        .filter_map(|d| d.checked_sub(HOLE))
        .max()
        .map_or(0, |h| h as usize + 1);
    let stand_in: Vec<Value> = (0..=Value::MAX)
        .rev()
        .filter(|v| !g.known_values().contains(v))
        .take(holes)
        .collect();
    let args: Vec<GArg> = binding
        .iter()
        .map(|&d| match d.checked_sub(HOLE) {
            Some(i) => GArg::Rel(stand_in[i as usize]),
            None => g.m[d as usize],
        })
        .collect();
    let parts = g.ground_parts(&args);
    let mut units = Vec::with_capacity(parts.len());
    for p in parts {
        let mut support = Vec::with_capacity(p.letters.len());
        let mut holes = Vec::new();
        for (bit, (pred, vals)) in p.letters.into_iter().enumerate() {
            if vals.iter().any(|v| stand_in.contains(v)) {
                let args = vals
                    .iter()
                    .map(|v| match stand_in.iter().position(|s| s == v) {
                        Some(i) => HArg::Hole(i as u8),
                        None => HArg::Val(*v),
                    })
                    .collect();
                holes.push(HoleLetter {
                    bit: bit as u8,
                    pred,
                    args,
                });
                support.push(NO_LETTER);
            } else {
                support.push(g.state_letter(pred, &vals));
            }
        }
        units.push(SeedUnit {
            tmpl: set.template(&p.key)?,
            state: 0,
            support,
            holes,
        });
    }
    timer.finish(&mut stats.ground_time);
    let runs: Vec<(u32, &[AtomId])> = units.iter().map(|u| (u.tmpl, &u.support[..])).collect();
    let mut states = vec![0; units.len()];
    replay(
        &mut set.templates,
        &runs,
        &mut states,
        g,
        cold,
        0,
        &mut stats.cache,
    )?;
    for (u, state) in units.iter_mut().zip(states) {
        u.state = state;
    }
    stats.replay_steps += t as u64;
    Ok(units)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bindings_number_placeholders_by_first_occurrence() {
        let mut out = Vec::new();
        bindings(2, 1, &mut out);
        let (z0, z1) = (HOLE, HOLE + 1);
        assert_eq!(
            out,
            vec![vec![0, z0], vec![z0, 0], vec![z0, z0], vec![z0, z1]]
        );
    }
}

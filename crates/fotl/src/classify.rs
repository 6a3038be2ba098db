//! The paper's classification of FOTL formulas (Section 2).
//!
//! * `Σn`/`Πn` prenex classes of pure first-order formulas, via an
//!   explicit prenexing transformation;
//! * `tense(C)`: temporal formulas built from class-`C` first-order
//!   formulas with future temporal and propositional connectives, **no
//!   quantifier over a temporal subformula**;
//! * **external** quantifiers (the leading `∀*` prefix) vs **internal**
//!   quantifiers (inside maximal pure-FO subformulas);
//! * the headline classes: **biquantified** `∀*tense(Σ∞)`, **universal**
//!   `∀*tense(Π0)`, and `∀*tense(Σ1)` (single-internal-quantifier level),
//!   which respectively bound the decidable (Theorem 4.2) and
//!   undecidable (Theorem 3.2) sides of temporal integrity checking;
//! * a syntactic safety check on the tense structure (sufficient
//!   condition for defining a safety property, cf. Sistla's
//!   characterisation cited in §6).

use crate::formula::Formula;
use crate::subst::{substitute, Subst};
use crate::term::Term;

/// A quantifier kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Quant {
    /// Universal.
    Forall,
    /// Existential.
    Exists,
}

impl Quant {
    fn flip(self) -> Self {
        match self {
            Quant::Forall => Quant::Exists,
            Quant::Exists => Quant::Forall,
        }
    }
}

/// Prenex class of a pure first-order formula.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrenexClass {
    /// No quantifiers: `Σ0 = Π0`.
    QuantifierFree,
    /// `Σn`: prefix starts with `∃`, `n` alternation blocks.
    Sigma(usize),
    /// `Πn`: prefix starts with `∀`, `n` alternation blocks.
    Pi(usize),
}

impl PrenexClass {
    /// The quantifier-alternation level `n` (0 for quantifier-free).
    pub fn level(self) -> usize {
        match self {
            PrenexClass::QuantifierFree => 0,
            PrenexClass::Sigma(n) | PrenexClass::Pi(n) => n,
        }
    }
}

/// Converts a **pure first-order** formula to prenex normal form,
/// returning the quantifier prefix (outermost first) and the
/// quantifier-free matrix. All bound variables are renamed apart (to
/// `$p0, $p1, …`, names the parser cannot produce).
///
/// # Panics
/// Panics if the formula contains temporal connectives.
pub fn prenex(f: &Formula) -> (Vec<(Quant, String)>, Formula) {
    assert!(
        f.is_pure_first_order(),
        "prenex is defined for pure first-order formulas"
    );
    let mut counter = 0usize;
    go_prenex(f, &mut counter)
}

fn go_prenex(f: &Formula, counter: &mut usize) -> (Vec<(Quant, String)>, Formula) {
    match f {
        Formula::True | Formula::False | Formula::Atom(_) => (vec![], f.clone()),
        Formula::Not(g) => {
            let (mut pfx, m) = go_prenex(g, counter);
            for (q, _) in &mut pfx {
                *q = q.flip();
            }
            (pfx, m.not())
        }
        Formula::Implies(a, b) => {
            let rewritten = a.as_ref().clone().not().or(b.as_ref().clone());
            go_prenex(&rewritten, counter)
        }
        Formula::And(a, b) | Formula::Or(a, b) => {
            let conj = matches!(f, Formula::And(_, _));
            let (pa, ma) = go_prenex(a, counter);
            let (pb, mb) = go_prenex(b, counter);
            // Bound variables were renamed apart by the recursion, so the
            // prefixes can simply be concatenated.
            let mut pfx = pa;
            pfx.extend(pb);
            let m = if conj { ma.and(mb) } else { ma.or(mb) };
            (pfx, m)
        }
        Formula::Forall(v, body) | Formula::Exists(v, body) => {
            let q = if matches!(f, Formula::Forall(_, _)) {
                Quant::Forall
            } else {
                Quant::Exists
            };
            let fresh = format!("$p{}", *counter);
            *counter += 1;
            let theta: Subst = [(v.clone(), Term::Var(fresh.clone()))]
                .into_iter()
                .collect();
            let renamed = substitute(body, &theta);
            let (mut pfx, m) = go_prenex(&renamed, counter);
            pfx.insert(0, (q, fresh));
            (pfx, m)
        }
        _ => unreachable!("temporal connective in pure first-order formula"),
    }
}

/// The `Σn`/`Πn` class of a pure first-order formula (via prenexing).
///
/// Returns `None` if the formula is not pure first-order.
pub fn prenex_class(f: &Formula) -> Option<PrenexClass> {
    if !f.is_pure_first_order() {
        return None;
    }
    let (pfx, _) = prenex(f);
    Some(class_of_prefix(&pfx))
}

fn class_of_prefix(pfx: &[(Quant, String)]) -> PrenexClass {
    let Some(&(first, _)) = pfx.first() else {
        return PrenexClass::QuantifierFree;
    };
    let mut blocks = 1usize;
    for w in pfx.windows(2) {
        if w[0].0 != w[1].0 {
            blocks += 1;
        }
    }
    match first {
        Quant::Exists => PrenexClass::Sigma(blocks),
        Quant::Forall => PrenexClass::Pi(blocks),
    }
}

/// Why a formula failed to be biquantified.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NotBiquantifiedReason {
    /// A future connective occurs under a past one (`●○p`): a past
    /// subformula must be a past formula, whose truth at an instant the
    /// prefix up to it decides.
    FutureUnderPast,
    /// A quantifier has a temporal connective in its scope (other than
    /// the leading external `∀*`).
    QuantifierOverTemporal,
}

/// The classification result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FormulaClass {
    /// `∀* tense(Π0)`: no internal quantifiers. Temporal integrity
    /// checking is decidable in exponential time (Theorem 4.2).
    Universal {
        /// Number of external universal quantifiers (`k`).
        external: usize,
    },
    /// `∀* tense(Σn)` with internal quantifiers present. Already with a
    /// *single* internal quantifier (`internal_level == 1`,
    /// `internal_quantifiers == 1`) checking is Π⁰₂-complete
    /// (Theorem 3.2).
    Biquantified {
        /// Number of external universal quantifiers (`k`).
        external: usize,
        /// Maximum `Σn`/`Πn` alternation level over the maximal pure-FO
        /// subformulas.
        internal_level: usize,
        /// Total number of internal quantifier occurrences.
        internal_quantifiers: usize,
    },
    /// Outside the biquantified fragment.
    NotBiquantified(NotBiquantifiedReason),
}

/// Strips the leading external `∀` prefix, returning the variable names
/// and the body.
pub fn external_prefix(f: &Formula) -> (Vec<&str>, &Formula) {
    let mut vars = Vec::new();
    let mut cur = f;
    while let Formula::Forall(v, body) = cur {
        vars.push(v.as_str());
        cur = body;
    }
    (vars, cur)
}

/// Classifies a closed FOTL formula against the paper's hierarchy.
///
/// Past connectives are admitted over past formulas (Section 5's Past
/// FOTL): the grounding rewrites each into a letter defined by a future
/// formula, so `∀*` over a past-and-future tense matrix is universal.
pub fn classify(f: &Formula) -> FormulaClass {
    if future_under_past(f) {
        return FormulaClass::NotBiquantified(NotBiquantifiedReason::FutureUnderPast);
    }
    let (external, body) = external_prefix(f);
    let mut levels: Vec<PrenexClass> = Vec::new();
    let mut quantifiers = 0usize;
    if !scan_tense(body, &mut levels, &mut quantifiers) {
        return FormulaClass::NotBiquantified(NotBiquantifiedReason::QuantifierOverTemporal);
    }
    let internal_level = levels.iter().map(|c| c.level()).max().unwrap_or(0);
    if internal_level == 0 && quantifiers == 0 {
        FormulaClass::Universal {
            external: external.len(),
        }
    } else {
        FormulaClass::Biquantified {
            external: external.len(),
            internal_level,
            internal_quantifiers: quantifiers,
        }
    }
}

/// Whether some past connective has a future connective in its scope.
fn future_under_past(f: &Formula) -> bool {
    match f {
        Formula::Prev(_) | Formula::Since(_, _) => !f.is_past(),
        _ => f.children().into_iter().any(future_under_past),
    }
}

/// Walks the tense structure; for each *maximal pure-FO subformula*
/// containing quantifiers, records its prenex class. Returns false if a
/// quantifier is found above a temporal connective.
fn scan_tense(f: &Formula, levels: &mut Vec<PrenexClass>, quantifiers: &mut usize) -> bool {
    if f.is_pure_first_order() {
        let q = f.quantifier_count();
        if q > 0 {
            *quantifiers += q;
            levels.push(prenex_class(f).expect("pure FO"));
        }
        return true;
    }
    match f {
        Formula::Forall(_, _) | Formula::Exists(_, _) => false, // quantifier over temporal
        _ => f
            .children()
            .iter()
            .all(|c| scan_tense(c, levels, quantifiers)),
    }
}

/// Syntactic safety of the *tense structure*: treating maximal pure-FO
/// subformulas as atoms, the formula's NNF contains no `until` (only
/// `□`/`release`/`○`/booleans). A universal formula passing this check
/// defines a safety property. This mirrors
/// `ticc_ptl::safety::is_syntactically_safe` at the first-order level.
pub fn is_syntactically_safe(f: &Formula) -> bool {
    fn until_free(f: &Formula, positive: bool) -> bool {
        if f.is_pure_first_order() {
            return true;
        }
        match f {
            Formula::Not(g) => until_free(g, !positive),
            Formula::And(a, b) | Formula::Or(a, b) => {
                until_free(a, positive) && until_free(b, positive)
            }
            Formula::Implies(a, b) => until_free(a, !positive) && until_free(b, positive),
            Formula::Next(g) | Formula::Forall(_, g) | Formula::Exists(_, g) => {
                until_free(g, positive)
            }
            Formula::Until(a, b) => {
                if positive {
                    false
                } else {
                    // ¬(a U b) ≡ nnf(¬a) R nnf(¬b): both arguments keep
                    // the negative polarity.
                    until_free(a, false) && until_free(b, false)
                }
            }
            // Past connectives: □(past) is safety (Prop. 2.1); treat any
            // past subformula as an opaque atom.
            Formula::Prev(_) | Formula::Since(_, _) => f.is_past(),
            Formula::True | Formula::False | Formula::Atom(_) => true,
        }
    }
    until_free(f, true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ticc_tdb::{PredId, Schema};

    fn p(t: Term) -> Formula {
        Formula::pred(PredId(0), vec![t])
    }

    #[test]
    fn prenex_of_nested() {
        // ¬∃x (P(x) ∧ ∀y P(y))  ⇒  ∀x ∃y ¬(P(x) ∧ P(y))
        let inner = Formula::forall("y", p(Term::var("y")));
        let f = Formula::exists("x", p(Term::var("x")).and(inner)).not();
        let (pfx, m) = prenex(&f);
        assert_eq!(pfx.len(), 2);
        assert_eq!(pfx[0].0, Quant::Forall);
        assert_eq!(pfx[1].0, Quant::Exists);
        assert!(m.is_quantifier_free());
        assert_eq!(prenex_class(&f), Some(PrenexClass::Pi(2)));
    }

    #[test]
    fn prenex_class_basics() {
        let qf = Formula::eq(Term::var("x"), Term::var("y"));
        assert_eq!(prenex_class(&qf), Some(PrenexClass::QuantifierFree));
        let e = Formula::exists("x", p(Term::var("x")));
        assert_eq!(prenex_class(&e), Some(PrenexClass::Sigma(1)));
        let a = Formula::forall("x", p(Term::var("x")));
        assert_eq!(prenex_class(&a), Some(PrenexClass::Pi(1)));
        // Same-block quantifiers do not add alternations.
        let ee = Formula::exists("x", Formula::exists("y", qf.clone()));
        assert_eq!(prenex_class(&ee), Some(PrenexClass::Sigma(1)));
        // Temporal formula: not pure FO.
        assert_eq!(prenex_class(&p(Term::var("x")).eventually()), None);
    }

    #[test]
    fn prenex_of_conjunction_renames_apart() {
        let e1 = Formula::exists("x", p(Term::var("x")));
        let e2 = Formula::exists("x", p(Term::var("x")).not());
        let f = e1.and(e2);
        let (pfx, m) = prenex(&f);
        assert_eq!(pfx.len(), 2);
        assert_ne!(pfx[0].1, pfx[1].1, "bound vars must be renamed apart");
        assert!(m.is_quantifier_free());
    }

    #[test]
    fn paper_examples_are_universal() {
        let sc = Schema::builder().pred("Sub", 1).pred("Fill", 1).build();
        let sub = |v: &str| Formula::pred(sc.pred("Sub").unwrap(), vec![Term::var(v)]);
        let fill = |v: &str| Formula::pred(sc.pred("Fill").unwrap(), vec![Term::var(v)]);

        // ∀x □(Sub(x) ⇒ ○□¬Sub(x))
        let once_only = Formula::forall(
            "x",
            sub("x").implies(sub("x").not().always().next()).always(),
        );
        assert_eq!(
            classify(&once_only),
            FormulaClass::Universal { external: 1 }
        );

        // The FIFO constraint (two external ∀, quantifier-free matrix).
        let fifo_body = Formula::neq(Term::var("x"), Term::var("y"))
            .and(sub("x"))
            .and(
                fill("x")
                    .not()
                    .until(sub("y").and(fill("x").not().until(fill("y").and(fill("x").not())))),
            )
            .not()
            .always();
        let fifo = Formula::forall_many(["x", "y"], fifo_body);
        assert_eq!(classify(&fifo), FormulaClass::Universal { external: 2 });
    }

    #[test]
    fn w2_is_biquantified_sigma1() {
        // W2 ≡ □◇∃x W(x): internal single existential quantifier.
        let sc = Schema::builder().pred("W", 1).build();
        let w = Formula::pred(sc.pred("W").unwrap(), vec![Term::var("x")]);
        let w2 = Formula::exists("x", w).eventually().always();
        match classify(&w2) {
            FormulaClass::Biquantified {
                external,
                internal_level,
                internal_quantifiers,
            } => {
                assert_eq!(external, 0);
                assert_eq!(internal_level, 1);
                assert_eq!(internal_quantifiers, 1);
            }
            other => panic!("expected biquantified, got {other:?}"),
        }
    }

    #[test]
    fn quantifier_over_temporal_rejected() {
        // ∃x ◇P(x) with the ∃ *inside* a temporal context:
        // □∃x◇P(x) — the ∃ scopes over ◇: not biquantified.
        let f = Formula::exists("x", p(Term::var("x")).eventually()).always();
        assert_eq!(
            classify(&f),
            FormulaClass::NotBiquantified(NotBiquantifiedReason::QuantifierOverTemporal)
        );
    }

    #[test]
    fn external_exists_is_internal_if_pure_and_rejected_if_temporal() {
        // ∃x ◇P(x) at top level: quantifier over temporal — rejected.
        let f = Formula::exists("x", p(Term::var("x")).eventually());
        assert!(matches!(classify(&f), FormulaClass::NotBiquantified(_)));
        // ∃x P(x) at top level: a pure-FO Σ1 component — biquantified
        // with zero external quantifiers.
        let g = Formula::exists("x", p(Term::var("x")));
        assert!(matches!(
            classify(&g),
            FormulaClass::Biquantified {
                external: 0,
                internal_level: 1,
                ..
            }
        ));
    }

    #[test]
    fn past_rejected() {
        // A past connective over a future one is outside the fragment…
        let f = Formula::forall("x", p(Term::var("x")).next().prev().always());
        assert_eq!(
            classify(&f),
            FormulaClass::NotBiquantified(NotBiquantifiedReason::FutureUnderPast)
        );
        // …but past over past, under future, is universal.
        let g = Formula::forall("x", p(Term::var("x")).once().prev().always());
        assert_eq!(classify(&g), FormulaClass::Universal { external: 1 });
    }

    #[test]
    fn safety_syntactic_check() {
        let x = || p(Term::var("x"));
        // □(P ⇒ ○¬P) is syntactically safe.
        let f = Formula::forall("x", x().implies(x().not().next()).always());
        assert!(is_syntactically_safe(&f));
        // ◇P is not.
        let g = Formula::forall("x", x().eventually());
        assert!(!is_syntactically_safe(&g));
        // □◇P is not.
        let h = x().eventually().always();
        assert!(!is_syntactically_safe(&h));
        // The FIFO constraint *is* (¬(… until …) under □).
        let u = x().until(x());
        let fifo_shape = Formula::forall("x", u.not().always());
        assert!(is_syntactically_safe(&fifo_shape));
        // □(past) is safety by Proposition 2.1.
        let past = x().once().always();
        assert!(is_syntactically_safe(&past));
    }

    #[test]
    fn external_prefix_stripping() {
        let body = p(Term::var("x")).always();
        let f = Formula::forall_many(["x", "y", "z"], body.clone());
        let (vars, b) = external_prefix(&f);
        assert_eq!(vars, vec!["x", "y", "z"]);
        assert_eq!(b, &body);
    }
}

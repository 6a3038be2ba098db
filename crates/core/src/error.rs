//! The unified error type of the core crate.
//!
//! Every entry point — engine, monitor, extension checker, trigger
//! engine, history-less monitor — fails through one [`Error`]: the
//! same two underlying failures — grounding rejection (Theorem 4.1's
//! fragment check) and propositional-engine failure — plus a couple of
//! caller-specific shapes. It is marked `#[non_exhaustive]` so future
//! failure modes are not breaking changes.

use crate::ground::GroundError;
use ticc_ptl::sat::SatError;
use ticc_tdb::TdbError;

/// Any failure the checking pipeline can produce.
///
/// Marked `#[non_exhaustive]`: match with a wildcard arm outside this
/// crate. The [`From`] impls make `?` work uniformly across the
/// grounding, satisfiability, and database layers.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Error {
    /// Grounding failed: the constraint is outside the decidable
    /// fragment of Theorem 4.1.
    Ground(GroundError),
    /// The propositional engines failed (e.g. a past connective reached
    /// the future-only satisfiability phase).
    Sat(SatError),
    /// Applying an update to the history failed.
    Tdb(TdbError),
    /// A trigger condition is unusable: `¬Cθ` must be a universal
    /// future sentence for the duality with potential satisfaction to
    /// apply.
    UnsupportedCondition(String),
    /// A past-fragment formula falls outside the shape the dedicated
    /// past monitor supports.
    UnsupportedShape(&'static str),
    /// The durability layer failed: WAL I/O, a corrupt frame, or an
    /// undecodable snapshot. Carries the rendered message only —
    /// `ticc_store::StoreError` wraps `std::io::Error`, which is
    /// neither `Clone` nor `PartialEq`, so it cannot live in this enum
    /// directly.
    Store(String),
    /// A session-lifecycle rule was broken: declaring schema symbols
    /// after the freeze, freezing an empty schema, committing before
    /// any predicate exists, or restoring a corrupt session blob.
    Session(String),
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Ground(e) => write!(f, "grounding: {e}"),
            Error::Sat(e) => write!(f, "satisfiability: {e}"),
            Error::Tdb(e) => write!(f, "database: {e}"),
            Error::UnsupportedCondition(m) => write!(f, "unsupported condition: {m}"),
            Error::UnsupportedShape(m) => write!(f, "unsupported formula shape: {m}"),
            Error::Store(m) => write!(f, "store: {m}"),
            Error::Session(m) => write!(f, "session: {m}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Ground(e) => Some(e),
            Error::Sat(e) => Some(e),
            Error::Tdb(e) => Some(e),
            Error::UnsupportedCondition(_)
            | Error::UnsupportedShape(_)
            | Error::Store(_)
            | Error::Session(_) => None,
        }
    }
}

impl From<GroundError> for Error {
    fn from(e: GroundError) -> Self {
        Error::Ground(e)
    }
}

impl From<SatError> for Error {
    fn from(e: SatError) -> Self {
        Error::Sat(e)
    }
}

impl From<TdbError> for Error {
    fn from(e: TdbError) -> Self {
        Error::Tdb(e)
    }
}

impl From<ticc_store::StoreError> for Error {
    fn from(e: ticc_store::StoreError) -> Self {
        Error::Store(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_and_sources() {
        let e = Error::from(GroundError::ExtendedVocabulary);
        assert!(e.to_string().starts_with("grounding:"));
        assert!(std::error::Error::source(&e).is_some());
        let e = Error::UnsupportedCondition("past operators".into());
        assert!(e.to_string().contains("unsupported condition"));
        assert!(std::error::Error::source(&e).is_none());
        let e = Error::UnsupportedShape("nested since");
        assert!(e.to_string().contains("unsupported formula shape"));
    }

    #[test]
    fn from_conversions_choose_the_right_variant() {
        let g: Error = GroundError::ExtendedVocabulary.into();
        assert!(matches!(g, Error::Ground(_)));
        let s: Error = SatError::Past.into();
        assert!(matches!(s, Error::Sat(_)));
    }
}

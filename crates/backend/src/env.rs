//! Strict, warn-once environment-override parsing — the policy
//! `hmm-native` reads `HMM_NATIVE_THREADS` with. The worker pool is
//! process-global, so its size is the one execution knob that stays in
//! the environment:
//!
//! * **Strict** — the caller supplies the parse function; anything it
//!   rejects is treated as absent (the caller keeps its default), never
//!   coerced.
//! * **Warn once per variable** — the first rejected value prints one
//!   `warning:` line naming the variable, the offending value, and what
//!   was expected; repeats stay silent so a hot loop reading the config
//!   does not spam stderr.

use std::collections::BTreeSet;
use std::sync::{Mutex, OnceLock, PoisonError};

/// Variables that have already warned about an invalid value, so each
/// warns at most once per process.
fn warned_set() -> &'static Mutex<BTreeSet<&'static str>> {
    static WARNED: OnceLock<Mutex<BTreeSet<&'static str>>> = OnceLock::new();
    WARNED.get_or_init(|| Mutex::new(BTreeSet::new()))
}

/// Record that `var` produced an invalid value; returns `true` when this
/// is the first time (i.e. the caller should emit the warning). Public
/// as a test seam — the warn-once contract is asserted without having to
/// capture stderr.
pub fn first_invalid(var: &'static str) -> bool {
    warned_set()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .insert(var)
}

/// Read `var` and run `parse` over it. Returns `Some(value)` when the
/// variable is set and parses; `None` when it is unset **or** invalid —
/// an invalid value additionally warns once per variable, quoting
/// `expected` so the fix is obvious. Callers keep their default on
/// `None`, so a typo can never silently select the wrong configuration.
pub fn parse_env<T>(
    var: &'static str,
    expected: &str,
    parse: impl Fn(&str) -> Option<T>,
) -> Option<T> {
    let v = std::env::var(var).ok()?;
    match parse(&v) {
        Some(t) => Some(t),
        None => {
            if first_invalid(var) {
                eprintln!("warning: ignoring invalid {var}={v:?} (expected {expected})");
            }
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unset_variable_yields_none_without_warning() {
        assert_eq!(
            parse_env("HMM_TEST_ENV_UNSET_XYZ", "anything", |_| Some(1)),
            None
        );
        // No warning was consumed for an unset variable.
        assert!(first_invalid("HMM_TEST_ENV_UNSET_XYZ"));
    }

    #[test]
    fn valid_value_parses_through() {
        std::env::set_var("HMM_TEST_ENV_VALID", " 7 ");
        assert_eq!(
            parse_env("HMM_TEST_ENV_VALID", "an integer", |v| v
                .trim()
                .parse::<u32>()
                .ok()),
            Some(7)
        );
        std::env::remove_var("HMM_TEST_ENV_VALID");
    }

    #[test]
    fn invalid_value_yields_none_and_warns_once() {
        std::env::set_var("HMM_TEST_ENV_BAD", "garbage");
        let parse = |v: &str| v.parse::<u32>().ok();
        assert_eq!(parse_env("HMM_TEST_ENV_BAD", "an integer", parse), None);
        assert_eq!(parse_env("HMM_TEST_ENV_BAD", "an integer", parse), None);
        // Both rejects consumed the single warning budget for this var.
        assert!(
            !first_invalid("HMM_TEST_ENV_BAD"),
            "an invalid value must register the variable as warned"
        );
        std::env::remove_var("HMM_TEST_ENV_BAD");
    }

    #[test]
    fn warn_once_is_per_variable() {
        assert!(first_invalid("HMM_TEST_ENV_A"));
        assert!(
            !first_invalid("HMM_TEST_ENV_A"),
            "second warn is suppressed"
        );
        assert!(
            first_invalid("HMM_TEST_ENV_B"),
            "other variables unaffected"
        );
    }
}

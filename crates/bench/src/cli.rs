//! Tiny flag-parsing helpers for the `repro` binary.
//!
//! The workspace builds fully offline (no clap); these keep the
//! `--flag value` handling, error wording, and exit-code convention
//! (2 = usage error) in one place.

use std::fmt::Display;
use std::str::FromStr;

/// Returns the value following a `--flag`, exiting with a usage error
/// (code 2) if the argument list ends first.
pub fn value_of(it: &mut core::slice::Iter<'_, String>, name: &str) -> String {
    it.next().cloned().unwrap_or_else(|| {
        eprintln!("{name} needs a value");
        std::process::exit(2);
    })
}

/// Parses a flag value, exiting with a usage error (code 2) on garbage.
pub fn parse_or_exit<T>(raw: &str, name: &str) -> T
where
    T: FromStr,
    T::Err: Display,
{
    raw.trim().parse().unwrap_or_else(|e| {
        eprintln!("bad {name} value '{raw}': {e}");
        std::process::exit(2);
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_of_yields_the_next_argument() {
        let args = [String::from("10"), String::from("--x")];
        let mut it = args.iter();
        assert_eq!(value_of(&mut it, "--n"), "10");
        assert_eq!(it.next().map(String::as_str), Some("--x"));
    }

    #[test]
    fn parse_or_exit_accepts_valid_input() {
        assert_eq!(parse_or_exit::<u64>("42", "--n"), 42);
        assert_eq!(parse_or_exit::<usize>(" 7 ", "--n"), 7);
    }
}

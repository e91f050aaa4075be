//! The workspace's stable string surface for configuration enums.
//!
//! Overlay kinds and fault-event kinds need the same four things: an
//! `ALL` constant for parametrized tests and benches, a stable
//! lower-case `name` for bench JSON fields and CLI flags, a `parse`
//! inverse for scenario spec strings, and a `Display` that prints the
//! name. The [`string_surface!`](crate::string_surface) macro generates
//! the whole surface for unit enums (so new kinds cannot drift from the
//! convention), and its `display_via_name` arm covers parameterized
//! enums like [`crate::CutoffPolicy`], which hand-roll a `name` that
//! embeds parameters, has no `parse` (a node's policy is configured in
//! code, never read from a string), and still wants the canonical
//! `Display`.

/// Generates the workspace's stable string surface.
///
/// For a unit enum, generates `ALL`, `name()`, `parse()`, and `Display`:
///
/// ```
/// #[derive(Debug, Clone, Copy, PartialEq, Eq)]
/// pub enum Fruit { Apple, Pear }
/// cup_core::string_surface!(Fruit { Apple => "apple", Pear => "pear" });
///
/// assert_eq!(Fruit::ALL.len(), 2);
/// assert_eq!(Fruit::parse(Fruit::Apple.name()), Some(Fruit::Apple));
/// assert_eq!(Fruit::Pear.to_string(), "pear");
/// assert_eq!(Fruit::parse("mango"), None);
/// ```
///
/// For a type with a hand-written parameterized `name()` (returning
/// `String`), `string_surface!(display_via_name Type)` generates only
/// the `Display` impl forwarding to it.
#[macro_export]
macro_rules! string_surface {
    ($Ty:ident { $($variant:ident => $name:literal),+ $(,)? }) => {
        impl $Ty {
            /// Every variant once, for parametrized tests and benches.
            pub const ALL: [$Ty; $crate::string_surface!(@count $($variant)+)] =
                [$($Ty::$variant),+];

            /// Stable lower-case name (bench JSON fields, CLI flags,
            /// scenario spec strings).
            pub fn name(self) -> &'static str {
                match self { $($Ty::$variant => $name),+ }
            }

            /// Parses the inverse of `name`.
            pub fn parse(s: &str) -> Option<$Ty> {
                match s { $($name => Some($Ty::$variant),)+ _ => None }
            }
        }
        $crate::string_surface!(display_via_name $Ty);
    };
    (display_via_name $Ty:ident) => {
        impl ::core::fmt::Display for $Ty {
            fn fmt(&self, f: &mut ::core::fmt::Formatter<'_>) -> ::core::fmt::Result {
                f.write_str(&self.name())
            }
        }
    };
    (@count) => { 0usize };
    (@count $head:ident $($tail:ident)*) => {
        1usize + $crate::string_surface!(@count $($tail)*)
    };
}

#[cfg(test)]
mod tests {
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Sample {
        One,
        Two,
        Three,
    }
    crate::string_surface!(Sample { One => "one", Two => "two", Three => "three" });

    #[test]
    fn generated_surface_round_trips() {
        assert_eq!(Sample::ALL, [Sample::One, Sample::Two, Sample::Three]);
        for s in Sample::ALL {
            assert_eq!(Sample::parse(s.name()), Some(s));
            assert_eq!(s.to_string(), s.name());
        }
        assert_eq!(Sample::parse("four"), None);
        assert_eq!(Sample::parse(""), None);
    }
}

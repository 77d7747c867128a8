//! Backend selection: portable software model vs. the native SIMD ISAs.
//!
//! Every kernel's hot loop runs against one resolved [`Backend`]:
//!
//! * [`Backend::Portable`] — the scalar software model in
//!   `invector-simd`, which defines the semantics and (with the `count`
//!   feature) charges the paper's instruction model.
//! * [`Backend::Avx512`] — real `vpconflictd` / gather / scatter paths,
//!   16 lanes, bitwise-identical to the portable model at width 16.
//! * [`Backend::Avx2`] — 8 lanes, conflict detection emulated with a
//!   broadcast/compare sweep (no `vpconflictd`), bitwise-identical to the
//!   portable model at width 8.
//! * [`Backend::Neon`] — 4 lanes on aarch64, bitwise-identical to the
//!   portable model at width 4.
//!
//! Selection is resolved **once per run**, not per vector: callers hold a
//! [`BackendChoice`] (usually inside an `ExecPolicy`), call
//! [`BackendChoice::resolve`] at the top of the kernel, and thread the
//! resulting [`Backend`] through the hot loop. Code paths without a policy
//! use the process-wide [`current`] default, which honors the
//! `INVECTOR_BACKEND` environment variable (`auto` / `portable` / `native`
//! / `avx512` / `avx2` / `neon`) and is detected once.

use std::sync::OnceLock;

use invector_simd::{Avx2, Avx512, Isa, Neon};

/// A resolved backend: which implementation the hot loop actually runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Backend {
    /// The portable software model (always available, any lane width).
    Portable,
    /// Real AVX-512 (`avx512f` + `avx512cd`) instructions, 16 lanes.
    Avx512,
    /// Real AVX2 instructions, 8 lanes, emulated conflict detection.
    Avx2,
    /// aarch64 NEON instructions, 4 lanes, emulated conflict detection.
    Neon,
}

impl Backend {
    /// Every backend, native ISAs in preference order after portable.
    pub const ALL: [Backend; 4] =
        [Backend::Portable, Backend::Avx512, Backend::Avx2, Backend::Neon];

    /// `true` for any hardware ISA (everything but [`Backend::Portable`]).
    #[inline]
    #[must_use]
    pub fn is_native(self) -> bool {
        self != Backend::Portable
    }

    /// Stable lowercase name, for logs and benchmark output.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Backend::Portable => "portable",
            Backend::Avx512 => Avx512::NAME,
            Backend::Avx2 => Avx2::NAME,
            Backend::Neon => Neon::NAME,
        }
    }

    /// 32-bit lanes per vector on this backend's fused path. The portable
    /// model reports the paper's 16 (it runs at any width; 16 is what the
    /// evaluation and the crate's aliases are built around).
    #[must_use]
    pub fn lanes(self) -> usize {
        match self {
            Backend::Portable => 16,
            Backend::Avx512 => Avx512::LANES,
            Backend::Avx2 => Avx2::LANES,
            Backend::Neon => Neon::LANES,
        }
    }

    /// Index into `invector_simd::count::BACKEND_NAMES` for the
    /// backend-labeled instruction/vector counter series.
    #[must_use]
    pub fn tag(self) -> usize {
        match self {
            Backend::Portable => invector_simd::count::tag::PORTABLE,
            Backend::Avx512 => Avx512::TAG,
            Backend::Avx2 => Avx2::TAG,
            Backend::Neon => Neon::TAG,
        }
    }

    /// Does the running CPU support this backend? Always `true` for
    /// [`Backend::Portable`].
    #[must_use]
    pub fn available(self) -> bool {
        match self {
            Backend::Portable => true,
            Backend::Avx512 => Avx512::available(),
            Backend::Avx2 => Avx2::available(),
            Backend::Neon => Neon::available(),
        }
    }

    /// The CPU features this backend needs, for diagnostics.
    fn required_features(self) -> &'static str {
        match self {
            Backend::Portable => "none",
            Backend::Avx512 => "x86_64 avx512f + avx512cd",
            Backend::Avx2 => "x86_64 avx2",
            Backend::Neon => "aarch64 NEON",
        }
    }
}

/// A backend *request*, resolved against CPU capabilities at run start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BackendChoice {
    /// Use the best available native ISA (AVX-512 over AVX2 over NEON),
    /// falling back to [`Backend::Portable`]. The default.
    #[default]
    Auto,
    /// Always use the portable software model.
    Portable,
    /// Require the 16-lane AVX-512 backend.
    Avx512,
    /// Require the 8-lane AVX2 backend.
    Avx2,
    /// Require the 4-lane NEON backend.
    Neon,
}

impl BackendChoice {
    /// Every accepted [`BackendChoice::parse`] spelling, in display order.
    pub const NAMES: [&'static str; 5] = ["auto", "portable", "avx512", "avx2", "neon"];

    /// The best native backend the running CPU supports, if any.
    fn best_native() -> Option<Backend> {
        [Backend::Avx512, Backend::Avx2, Backend::Neon].into_iter().find(|b| b.available())
    }

    /// Resolves the request against the running CPU.
    ///
    /// # Panics
    ///
    /// Panics if a specific ISA is requested that the host does not
    /// support. The message names the missing CPU features.
    #[must_use]
    pub fn resolve(self) -> Backend {
        let require = |b: Backend| {
            assert!(
                b.available(),
                "{} backend requested but this host lacks {}; use `auto` to \
                 fall back to the portable model, or unset INVECTOR_BACKEND",
                b.name(),
                b.required_features(),
            );
            b
        };
        match self {
            BackendChoice::Portable => Backend::Portable,
            BackendChoice::Auto => Self::best_native().unwrap_or(Backend::Portable),
            BackendChoice::Avx512 => require(Backend::Avx512),
            BackendChoice::Avx2 => require(Backend::Avx2),
            BackendChoice::Neon => require(Backend::Neon),
        }
    }

    /// Parses a backend name as accepted by `INVECTOR_BACKEND` and the CLI
    /// `--backend` option (case-insensitive).
    ///
    /// # Errors
    ///
    /// Unknown names return a message listing every valid value and which
    /// of them the current host supports — so a typo tells the user both
    /// what to type and what would actually run.
    pub fn parse(s: &str) -> Result<BackendChoice, String> {
        match s.to_ascii_lowercase().as_str() {
            "auto" => Ok(BackendChoice::Auto),
            "portable" => Ok(BackendChoice::Portable),
            "avx512" => Ok(BackendChoice::Avx512),
            "avx2" => Ok(BackendChoice::Avx2),
            "neon" => Ok(BackendChoice::Neon),
            other => {
                let supported: Vec<&str> =
                    Backend::ALL.into_iter().filter(|b| b.available()).map(Backend::name).collect();
                Err(format!(
                    "unrecognized backend name {other:?}: valid values are {} \
                     (supported on this host: {})",
                    Self::NAMES.join(", "),
                    supported.join(", "),
                ))
            }
        }
    }
}

/// The process-wide default backend, for call sites that do not carry an
/// `ExecPolicy`. Resolved once from the `INVECTOR_BACKEND` environment
/// variable (`auto` when unset) and cached.
///
/// # Panics
///
/// First call panics if `INVECTOR_BACKEND` is set to an unrecognized
/// value, or to an ISA the host does not support.
#[must_use]
pub fn current() -> Backend {
    static CURRENT: OnceLock<Backend> = OnceLock::new();
    *CURRENT.get_or_init(|| choice_from_env().resolve())
}

fn choice_from_env() -> BackendChoice {
    match std::env::var("INVECTOR_BACKEND") {
        Ok(v) => match BackendChoice::parse(&v) {
            Ok(choice) => choice,
            Err(msg) => panic!("INVECTOR_BACKEND: {msg}"),
        },
        Err(_) => BackendChoice::Auto,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn portable_is_always_resolvable() {
        assert_eq!(BackendChoice::Portable.resolve(), Backend::Portable);
    }

    #[test]
    fn auto_prefers_the_widest_available_isa() {
        let expect = if Backend::Avx512.available() {
            Backend::Avx512
        } else if Backend::Avx2.available() {
            Backend::Avx2
        } else if Backend::Neon.available() {
            Backend::Neon
        } else {
            Backend::Portable
        };
        assert_eq!(BackendChoice::Auto.resolve(), expect);
    }

    #[test]
    fn forced_isa_resolves_or_panics_with_useful_message() {
        for (choice, backend) in [
            (BackendChoice::Avx512, Backend::Avx512),
            (BackendChoice::Avx2, Backend::Avx2),
            (BackendChoice::Neon, Backend::Neon),
        ] {
            if backend.available() {
                assert_eq!(choice.resolve(), backend);
            } else {
                let err = std::panic::catch_unwind(|| choice.resolve())
                    .expect_err("forcing an unsupported ISA must panic");
                let msg = err.downcast_ref::<String>().expect("panic carries a message");
                assert!(msg.contains(backend.name()), "message should name the backend: {msg}");
            }
        }
    }

    #[test]
    fn parse_accepts_every_documented_name() {
        for name in BackendChoice::NAMES {
            assert!(BackendChoice::parse(name).is_ok(), "{name} should parse");
            assert!(BackendChoice::parse(&name.to_uppercase()).is_ok());
        }
    }

    #[test]
    fn parse_rejects_unknown_names_listing_valid_and_supported() {
        let msg = BackendChoice::parse("sse9").expect_err("sse9 is not a backend");
        for name in BackendChoice::NAMES {
            assert!(msg.contains(name), "error should list {name}: {msg}");
        }
        assert!(msg.contains("supported on this host"), "{msg}");
        assert!(BackendChoice::parse("native").is_err(), "the old alias is gone");
    }

    #[test]
    fn current_is_stable_across_calls() {
        assert_eq!(current(), current());
    }

    #[test]
    fn names_lanes_and_tags_are_stable() {
        assert_eq!(Backend::Portable.name(), "portable");
        assert_eq!(Backend::Avx512.name(), "avx512");
        assert_eq!(Backend::Avx2.name(), "avx2");
        assert_eq!(Backend::Neon.name(), "neon");
        assert_eq!(Backend::Avx512.lanes(), 16);
        assert_eq!(Backend::Avx2.lanes(), 8);
        assert_eq!(Backend::Neon.lanes(), 4);
        assert_eq!(Backend::Portable.lanes(), 16);
        for b in Backend::ALL {
            assert_eq!(invector_simd::count::BACKEND_NAMES[b.tag()], b.name());
            assert_eq!(b.is_native(), b != Backend::Portable);
        }
        assert!(Backend::Portable.available());
    }
}

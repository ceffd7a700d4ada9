//! Global string interning for hot-path labels.
//!
//! The observability layer names things constantly: every span end used to
//! build `span.<name>.count` / `span.<name>.ns` strings and hash them into
//! the registry's `BTreeMap`s — two allocations plus two tree walks per
//! event. [`Symbol`] replaces the string in all hot structures with a `u32`
//! into a process-global, append-only, leaky table: comparisons and hashing
//! become integer ops, and the backing `&'static str` is resolved only on
//! the cold paths (exports, registry admission).
//!
//! Determinism note: symbol *ids* depend on interning order, which can vary
//! across processes (test threads race to intern first). Ids therefore must
//! never leak into exported bytes or sort keys — exporters always go
//! through [`Symbol::as_str`]. The golden-trace harness pins this: TSV
//! exports are byte-identical across runs regardless of interning order.
//!
//! Use the [`crate::sym!`] macro at call sites with literal names: it
//! caches the `Symbol` in a per-site `OnceLock` so the table lock is taken
//! once per site, not once per event.

use parking_lot::Mutex;
use std::collections::HashMap;
use std::fmt;
use std::sync::OnceLock;

/// An interned string: a copyable, integer-comparable handle to a name in
/// the process-global symbol table. Equality and hashing are on the id;
/// two `Symbol`s are equal iff their strings are equal.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Symbol(u32);

struct Interner {
    map: HashMap<&'static str, u32>,
    strings: Vec<&'static str>,
}

fn interner() -> &'static Mutex<Interner> {
    static INTERNER: OnceLock<Mutex<Interner>> = OnceLock::new();
    INTERNER.get_or_init(|| {
        Mutex::new(Interner {
            map: HashMap::new(),
            strings: Vec::new(),
        })
    })
}

impl Symbol {
    /// Intern `s`, returning its stable handle. The first interning of a
    /// given string leaks one copy for the process lifetime; repeat calls
    /// are a hash lookup. Prefer [`crate::sym!`] for literals on hot paths.
    pub fn intern(s: &str) -> Symbol {
        let mut int = interner().lock();
        if let Some(&id) = int.map.get(s) {
            return Symbol(id);
        }
        let leaked: &'static str = Box::leak(s.to_string().into_boxed_str());
        let id = u32::try_from(int.strings.len()).expect("symbol table overflow");
        int.strings.push(leaked);
        int.map.insert(leaked, id);
        Symbol(id)
    }

    /// The interned string. `'static` because the table is leaky.
    pub fn as_str(self) -> &'static str {
        interner().lock().strings[self.0 as usize]
    }

    /// Raw table index — diagnostics only. Ids are interning-order
    /// dependent and must never reach exported bytes or sort keys.
    pub fn id(self) -> u32 {
        self.0
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self.as_str())
    }
}

impl From<&str> for Symbol {
    fn from(s: &str) -> Symbol {
        Symbol::intern(s)
    }
}

impl From<&String> for Symbol {
    fn from(s: &String) -> Symbol {
        Symbol::intern(s)
    }
}

impl From<String> for Symbol {
    fn from(s: String) -> Symbol {
        Symbol::intern(&s)
    }
}

impl PartialEq<&str> for Symbol {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl PartialEq<str> for Symbol {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<Symbol> for &str {
    fn eq(&self, other: &Symbol) -> bool {
        *self == other.as_str()
    }
}

impl PartialEq<Symbol> for str {
    fn eq(&self, other: &Symbol) -> bool {
        self == other.as_str()
    }
}

/// Intern a label once per call site. Expands to a `OnceLock<Symbol>`
/// static, so after the first hit the expression is a copy of a `u32`
/// wrapper — no table lock, no hashing.
///
/// ```
/// use hpcc_sim::sym;
/// let s = sym!("engine.pull");
/// assert_eq!(s.as_str(), "engine.pull");
/// ```
#[macro_export]
macro_rules! sym {
    ($s:expr) => {{
        static SITE: ::std::sync::OnceLock<$crate::intern::Symbol> = ::std::sync::OnceLock::new();
        *SITE.get_or_init(|| $crate::intern::Symbol::intern($s))
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent_and_equality_is_by_content() {
        let a = Symbol::intern("interntest.alpha");
        let b = Symbol::intern("interntest.alpha");
        let c = Symbol::intern("interntest.beta");
        assert_eq!(a, b);
        assert_eq!(a.id(), b.id());
        assert_ne!(a, c);
        assert_eq!(a.as_str(), "interntest.alpha");
    }

    #[test]
    fn symbols_compare_against_strs() {
        let s = Symbol::intern("interntest.cmp");
        assert_eq!(s, "interntest.cmp");
        assert!(s != "interntest.other");
        assert_eq!("interntest.cmp", s);
        let owned = String::from("interntest.cmp");
        assert_eq!(Symbol::from(&owned), s);
        assert_eq!(Symbol::from(owned), s);
    }

    #[test]
    fn display_and_debug_render_the_string() {
        let s = Symbol::intern("interntest.fmt");
        assert_eq!(format!("{s}"), "interntest.fmt");
        assert_eq!(format!("{s:?}"), "\"interntest.fmt\"");
    }

    #[test]
    fn sym_macro_caches_per_site() {
        let a = sym!("interntest.site");
        let b = sym!("interntest.site");
        assert_eq!(a, b);
        assert_eq!(a, Symbol::intern("interntest.site"));
    }

    #[test]
    fn concurrent_interning_agrees_on_ids() {
        let handles: Vec<_> = (0..8)
            .map(|_| std::thread::spawn(|| Symbol::intern("interntest.race").id()))
            .collect();
        let ids: Vec<u32> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert!(ids.windows(2).all(|w| w[0] == w[1]), "{ids:?}");
    }
}

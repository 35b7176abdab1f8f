//! Compile-time constant environments.
//!
//! The paper assumes statically known loop bounds ("the loop bounds are
//! statically known", §5). A [`ConstEnv`] binds the program's integer
//! parameters (`n`, `m`, ...) to concrete values so that bounds and
//! subscripts fold to the constants the dependence tests need.

use std::collections::BTreeMap;

/// A mapping from parameter names to concrete integer values.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct ConstEnv {
    vals: BTreeMap<String, i64>,
}

impl ConstEnv {
    /// An empty environment.
    pub fn new() -> ConstEnv {
        ConstEnv::default()
    }

    /// Build an environment from `(name, value)` pairs.
    pub fn from_pairs<'a>(pairs: impl IntoIterator<Item = (&'a str, i64)>) -> ConstEnv {
        let mut e = ConstEnv::new();
        for (k, v) in pairs {
            e.bind(k, v);
        }
        e
    }

    /// Bind (or rebind) a parameter.
    pub fn bind(&mut self, name: impl Into<String>, value: i64) -> &mut Self {
        self.vals.insert(name.into(), value);
        self
    }

    /// Look up a parameter value.
    pub fn lookup(&self, name: &str) -> Option<i64> {
        self.vals.get(name).copied()
    }

    /// `true` if `name` is bound.
    pub fn contains(&self, name: &str) -> bool {
        self.vals.contains_key(name)
    }

    /// Iterate over bindings in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, i64)> {
        self.vals.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Number of bound parameters.
    pub fn len(&self) -> usize {
        self.vals.len()
    }

    /// `true` when no parameters are bound.
    pub fn is_empty(&self) -> bool {
        self.vals.is_empty()
    }
}

impl<'a> FromIterator<(&'a str, i64)> for ConstEnv {
    fn from_iter<T: IntoIterator<Item = (&'a str, i64)>>(iter: T) -> Self {
        ConstEnv::from_pairs(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bind_and_lookup() {
        let mut e = ConstEnv::new();
        e.bind("n", 100).bind("m", 20);
        assert_eq!(e.lookup("n"), Some(100));
        assert_eq!(e.lookup("m"), Some(20));
        assert_eq!(e.lookup("k"), None);
        assert!(e.contains("n"));
        assert_eq!(e.len(), 2);
    }

    #[test]
    fn rebind_overwrites() {
        let mut e = ConstEnv::new();
        e.bind("n", 1);
        e.bind("n", 2);
        assert_eq!(e.lookup("n"), Some(2));
        assert_eq!(e.len(), 1);
    }

    #[test]
    fn from_pairs_collects() {
        let e: ConstEnv = [("a", 1), ("b", 2)].into_iter().collect();
        assert_eq!(e.lookup("a"), Some(1));
        assert_eq!(e.lookup("b"), Some(2));
    }
}

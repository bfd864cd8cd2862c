//! Memory layout: struct shapes and the address space of a test.
//!
//! Pointers in LSL are base-plus-offset-path values (paper Fig. 5). The
//! address space of a bounded test consists of a set of *bases* — the
//! global variables plus one base per dynamic allocation — each typed by a
//! [`MemType`]. A *scalar location* is a full path from a base to a leaf;
//! loads and stores must target scalar locations.

use std::collections::BTreeMap;
use std::fmt;

/// Identifies a struct definition in a [`TypeTable`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct StructId(pub u32);

impl StructId {
    /// Zero-based index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The shape of a memory region.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum MemType {
    /// A single scalar cell (integer or pointer — LSL is untyped).
    Scalar,
    /// A struct instance.
    Struct(StructId),
    /// A fixed-size array.
    Array(Box<MemType>, u32),
}

/// A named struct shape.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct StructDef {
    /// Source-level name.
    pub name: String,
    /// Ordered fields; the field index is the pointer offset.
    pub fields: Vec<(String, MemType)>,
}

/// All struct definitions of a program.
#[derive(Clone, Default, PartialEq, Eq, Debug)]
pub struct TypeTable {
    structs: Vec<StructDef>,
    by_name: BTreeMap<String, StructId>,
}

impl TypeTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a struct definition.
    ///
    /// # Panics
    ///
    /// Panics if a struct with the same name exists.
    pub fn define(&mut self, def: StructDef) -> StructId {
        assert!(
            !self.by_name.contains_key(&def.name),
            "duplicate struct `{}`",
            def.name
        );
        let id = StructId(self.structs.len() as u32);
        self.by_name.insert(def.name.clone(), id);
        self.structs.push(def);
        id
    }

    /// Looks a struct up by name.
    pub fn lookup(&self, name: &str) -> Option<StructId> {
        self.by_name.get(name).copied()
    }

    /// The definition behind an id.
    pub fn get(&self, id: StructId) -> &StructDef {
        &self.structs[id.index()]
    }

    /// Number of defined structs.
    pub fn len(&self) -> usize {
        self.structs.len()
    }

    /// `true` when no structs are defined.
    pub fn is_empty(&self) -> bool {
        self.structs.is_empty()
    }

    /// Enumerates all scalar paths inside a region of type `ty`
    /// (relative paths; empty path = the region itself is scalar).
    pub fn scalar_paths(&self, ty: &MemType) -> Vec<Vec<u32>> {
        let mut out = Vec::new();
        self.collect_paths(ty, &mut Vec::new(), &mut out);
        out
    }

    fn collect_paths(&self, ty: &MemType, prefix: &mut Vec<u32>, out: &mut Vec<Vec<u32>>) {
        match ty {
            MemType::Scalar => out.push(prefix.clone()),
            MemType::Struct(id) => {
                let def = self.get(*id).clone();
                for (i, (_, fty)) in def.fields.iter().enumerate() {
                    prefix.push(i as u32);
                    self.collect_paths(fty, prefix, out);
                    prefix.pop();
                }
            }
            MemType::Array(elem, n) => {
                for i in 0..*n {
                    prefix.push(i);
                    self.collect_paths(elem, prefix, out);
                    prefix.pop();
                }
            }
        }
    }

    /// Resolves a relative path within `ty`; returns the leaf type if the
    /// path is valid.
    pub fn resolve_path<'a>(&'a self, ty: &'a MemType, path: &[u32]) -> Option<&'a MemType> {
        let mut cur = ty;
        for &step in path {
            match cur {
                MemType::Scalar => return None,
                MemType::Struct(id) => {
                    let def = self.get(*id);
                    cur = &def.fields.get(step as usize)?.1;
                }
                MemType::Array(elem, n) => {
                    if step >= *n {
                        return None;
                    }
                    cur = elem;
                }
            }
        }
        Some(cur)
    }

    /// Human-readable rendering of a relative path within `ty`
    /// (e.g. `.head` or `.slots[2]`).
    pub fn path_name(&self, ty: &MemType, path: &[u32]) -> String {
        let mut s = String::new();
        let mut cur = ty;
        for &step in path {
            match cur {
                MemType::Scalar => {
                    s.push_str(&format!(".?{step}"));
                    return s;
                }
                MemType::Struct(id) => {
                    let def = self.get(*id);
                    match def.fields.get(step as usize) {
                        Some((name, fty)) => {
                            s.push('.');
                            s.push_str(name);
                            cur = fty;
                        }
                        None => {
                            s.push_str(&format!(".?{step}"));
                            return s;
                        }
                    }
                }
                MemType::Array(elem, _) => {
                    s.push_str(&format!("[{step}]"));
                    cur = elem;
                }
            }
        }
        s
    }
}

/// A base in the address space: a named global or a heap allocation.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct BaseDef {
    /// Display name (`queue` for a global, `node#3` for an allocation).
    pub name: String,
    /// Shape of the region.
    pub ty: MemType,
    /// `true` for dynamically allocated bases.
    pub is_heap: bool,
}

/// The full address space of one bounded test: globals first, then one
/// base per allocation site encountered.
#[derive(Clone, Default, PartialEq, Eq, Debug)]
pub struct AddressSpace {
    /// All bases; a pointer value `[b, p...]` refers to `bases[b]`.
    pub bases: Vec<BaseDef>,
}

impl AddressSpace {
    /// Creates an empty address space.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a base and returns its index.
    pub fn add_base(&mut self, base: BaseDef) -> u32 {
        self.bases.push(base);
        (self.bases.len() - 1) as u32
    }

    /// Checks whether `path` names a valid scalar location.
    pub fn is_scalar_location(&self, types: &TypeTable, path: &[u32]) -> bool {
        let Some((&base, rest)) = path.split_first() else {
            return false;
        };
        let Some(def) = self.bases.get(base as usize) else {
            return false;
        };
        matches!(types.resolve_path(&def.ty, rest), Some(MemType::Scalar))
    }

    /// All scalar locations as absolute paths.
    pub fn all_scalar_locations(&self, types: &TypeTable) -> Vec<Vec<u32>> {
        let mut out = Vec::new();
        for (b, def) in self.bases.iter().enumerate() {
            for rel in types.scalar_paths(&def.ty) {
                let mut abs = Vec::with_capacity(rel.len() + 1);
                abs.push(b as u32);
                abs.extend(rel);
                out.push(abs);
            }
        }
        out
    }

    /// Human-readable name of an absolute location path.
    pub fn location_name(&self, types: &TypeTable, path: &[u32]) -> String {
        match path.split_first() {
            None => "<empty>".into(),
            Some((&base, rest)) => match self.bases.get(base as usize) {
                None => format!("<bad base {base}>"),
                Some(def) => format!("{}{}", def.name, types.path_name(&def.ty, rest)),
            },
        }
    }
}

impl fmt::Display for AddressSpace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, b) in self.bases.iter().enumerate() {
            writeln!(
                f,
                "[{i}] {}{}",
                b.name,
                if b.is_heap { " (heap)" } else { "" }
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node_types() -> (TypeTable, StructId) {
        let mut t = TypeTable::new();
        let node = t.define(StructDef {
            name: "node".into(),
            fields: vec![
                ("next".into(), MemType::Scalar),
                ("value".into(), MemType::Scalar),
            ],
        });
        (t, node)
    }

    #[test]
    fn scalar_paths_of_struct() {
        let (t, node) = node_types();
        let paths = t.scalar_paths(&MemType::Struct(node));
        assert_eq!(paths, vec![vec![0], vec![1]]);
    }

    #[test]
    fn scalar_paths_of_array_of_struct() {
        let (mut t, node) = node_types();
        let pair = t.define(StructDef {
            name: "pair".into(),
            fields: vec![(
                "nodes".into(),
                MemType::Array(Box::new(MemType::Struct(node)), 2),
            )],
        });
        let paths = t.scalar_paths(&MemType::Struct(pair));
        assert_eq!(
            paths,
            vec![vec![0, 0, 0], vec![0, 0, 1], vec![0, 1, 0], vec![0, 1, 1]]
        );
    }

    #[test]
    fn resolve_and_validate() {
        let (t, node) = node_types();
        let mut space = AddressSpace::new();
        space.add_base(BaseDef {
            name: "n".into(),
            ty: MemType::Struct(node),
            is_heap: false,
        });
        assert!(space.is_scalar_location(&t, &[0, 0]));
        assert!(space.is_scalar_location(&t, &[0, 1]));
        assert!(!space.is_scalar_location(&t, &[0]), "struct is not scalar");
        assert!(!space.is_scalar_location(&t, &[0, 2]), "no third field");
        assert!(!space.is_scalar_location(&t, &[1, 0]), "no such base");
        assert!(!space.is_scalar_location(&t, &[]), "empty path");
    }

    #[test]
    fn names() {
        let (t, node) = node_types();
        let mut space = AddressSpace::new();
        space.add_base(BaseDef {
            name: "n".into(),
            ty: MemType::Struct(node),
            is_heap: false,
        });
        assert_eq!(space.location_name(&t, &[0, 1]), "n.value");
        assert_eq!(space.location_name(&t, &[0, 0]), "n.next");
    }

    #[test]
    #[should_panic(expected = "duplicate struct")]
    fn duplicate_struct_panics() {
        let (mut t, _) = node_types();
        t.define(StructDef {
            name: "node".into(),
            fields: vec![],
        });
    }
}

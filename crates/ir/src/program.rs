//! Programs, globals and classes.

use crate::{ClassId, FieldId, FuncId, Function, GlobalId, Ty, Value};
use std::sync::Arc;

/// A global variable declaration.
#[derive(Clone, PartialEq, Debug)]
pub struct GlobalDecl {
    /// Source-level name.
    pub name: String,
    /// Declared type; may be scalar or an array type.
    pub ty: Ty,
    /// Initial value for scalar globals (defaults to zero when `None`).
    pub init: Option<Value>,
    /// Declared element count for array globals.
    pub array_len: Option<usize>,
}

/// A field of a class.
#[derive(Clone, PartialEq, Debug)]
pub struct FieldDecl {
    /// Source-level name.
    pub name: String,
    /// Declared type.
    pub ty: Ty,
}

/// A class definition: named fields plus methods.
///
/// The paper treats "class fields as globals and class methods as functions"
/// when splitting object-oriented code; [`ClassDef`] is the unit the class
/// splitter (see `hps-core`) operates on.
#[derive(Clone, PartialEq, Debug)]
pub struct ClassDef {
    /// Class name.
    pub name: String,
    /// Declared fields.
    pub fields: Vec<FieldDecl>,
    /// Methods, as indices into [`Program::functions`].
    pub methods: Vec<FuncId>,
}

impl ClassDef {
    /// Looks up a field by name.
    pub fn field_by_name(&self, name: &str) -> Option<FieldId> {
        self.fields
            .iter()
            .position(|f| f.name == name)
            .map(FieldId::new)
    }

    /// The declaration of a field.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn field(&self, id: FieldId) -> &FieldDecl {
        &self.fields[id.index()]
    }
}

/// A whole compilation unit.
///
/// Functions are shared behind [`Arc`]s, so cloning a program copies
/// pointers, not bodies. [`Program::func_mut`] rewrites copy-on-write: a
/// transformation that rewrites one function of a clone leaves every other
/// function shared with the program it was cloned from.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct Program {
    /// All functions, including class methods.
    pub functions: Vec<Arc<Function>>,
    /// Global variables.
    pub globals: Vec<GlobalDecl>,
    /// Class definitions.
    pub classes: Vec<ClassDef>,
}

impl Program {
    /// An empty program.
    pub fn new() -> Program {
        Program::default()
    }

    /// Appends a function, returning its id.
    pub fn add_function(&mut self, func: Function) -> FuncId {
        self.functions.push(Arc::new(func));
        FuncId::new(self.functions.len() - 1)
    }

    /// Appends a scalar global, returning its id.
    pub fn add_global(&mut self, name: impl Into<String>, ty: Ty, init: Option<Value>) -> GlobalId {
        self.globals.push(GlobalDecl {
            name: name.into(),
            ty,
            init,
            array_len: None,
        });
        GlobalId::new(self.globals.len() - 1)
    }

    /// The function with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn func(&self, id: FuncId) -> &Function {
        &self.functions[id.index()]
    }

    /// Mutable access to the function with the given id. A function
    /// still shared with another program is cloned first
    /// ([`Arc::make_mut`]).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn func_mut(&mut self, id: FuncId) -> &mut Function {
        Arc::make_mut(&mut self.functions[id.index()])
    }

    /// Looks up a free function by name (methods are not found here).
    pub fn func_by_name(&self, name: &str) -> Option<FuncId> {
        self.functions
            .iter()
            .position(|f| f.name == name && f.class.is_none())
            .map(FuncId::new)
    }

    /// Looks up a method `class.name`.
    pub fn method_by_name(&self, class: ClassId, name: &str) -> Option<FuncId> {
        self.classes[class.index()]
            .methods
            .iter()
            .copied()
            .find(|&m| self.functions[m.index()].name == name)
    }

    /// Looks up a global by name.
    pub fn global_by_name(&self, name: &str) -> Option<GlobalId> {
        self.globals
            .iter()
            .position(|g| g.name == name)
            .map(GlobalId::new)
    }

    /// Looks up a class by name.
    pub fn class_by_name(&self, name: &str) -> Option<ClassId> {
        self.classes
            .iter()
            .position(|c| c.name == name)
            .map(ClassId::new)
    }

    /// The class with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn class(&self, id: ClassId) -> &ClassDef {
        &self.classes[id.index()]
    }

    /// The conventional entry point, a function named `main`.
    pub fn entry(&self) -> Option<FuncId> {
        self.func_by_name("main")
    }

    /// Renumbers statements in every function. Returns total statements.
    ///
    /// Functions whose ids are already dense and pre-order are left
    /// untouched, so shared functions stay shared.
    pub fn renumber_all(&mut self) -> usize {
        self.functions
            .iter_mut()
            .map(|f| {
                if f.is_numbered() {
                    f.stmt_count()
                } else {
                    Arc::make_mut(f).renumber()
                }
            })
            .sum()
    }

    /// Iterator over `(id, function)` pairs.
    pub fn iter_funcs(&self) -> impl Iterator<Item = (FuncId, &Function)> {
        self.functions
            .iter()
            .enumerate()
            .map(|(i, f)| (FuncId::new(i), &**f))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_by_name() {
        let mut p = Program::new();
        let f = p.add_function(Function::new("main", Ty::Void));
        let g = p.add_global("count", Ty::Int, Some(Value::Int(1)));
        assert_eq!(p.func_by_name("main"), Some(f));
        assert_eq!(p.entry(), Some(f));
        assert_eq!(p.global_by_name("count"), Some(g));
        assert_eq!(p.global_by_name("missing"), None);
        assert_eq!(p.func_by_name("missing"), None);
    }

    #[test]
    fn methods_are_not_free_functions() {
        let mut p = Program::new();
        let mut m = Function::new("run", Ty::Void);
        m.class = Some(ClassId::new(0));
        let mid = p.add_function(m);
        p.classes.push(ClassDef {
            name: "Task".into(),
            fields: vec![FieldDecl {
                name: "x".into(),
                ty: Ty::Int,
            }],
            methods: vec![mid],
        });
        assert_eq!(p.func_by_name("run"), None);
        assert_eq!(p.method_by_name(ClassId::new(0), "run"), Some(mid));
        assert_eq!(p.class_by_name("Task"), Some(ClassId::new(0)));
        let c = p.class(ClassId::new(0));
        assert_eq!(c.field_by_name("x"), Some(FieldId::new(0)));
        assert_eq!(c.field(FieldId::new(0)).ty, Ty::Int);
    }

    #[test]
    fn renumber_all_sums_statement_counts() {
        let mut p = Program::new();
        let mut f1 = Function::new("a", Ty::Void);
        f1.body.stmts.push(crate::Stmt::new(crate::StmtKind::Nop));
        p.add_function(f1);
        let mut f2 = Function::new("b", Ty::Void);
        f2.body.stmts.push(crate::Stmt::new(crate::StmtKind::Nop));
        f2.body.stmts.push(crate::Stmt::new(crate::StmtKind::Nop));
        p.add_function(f2);
        assert_eq!(p.renumber_all(), 3);
        assert_eq!(p.iter_funcs().count(), 2);
    }

    #[test]
    fn clones_share_functions_until_rewritten() {
        let mut p = Program::new();
        let mut f = Function::new("a", Ty::Void);
        f.body.stmts.push(crate::Stmt::new(crate::StmtKind::Nop));
        p.add_function(f);
        p.add_function(Function::new("b", Ty::Void));
        p.renumber_all();
        let mut q = p.clone();
        assert_eq!(q.renumber_all(), 1);
        assert!(Arc::ptr_eq(&p.functions[0], &q.functions[0]));
        q.func_mut(FuncId::new(1)).name = "c".into();
        assert!(Arc::ptr_eq(&p.functions[0], &q.functions[0]));
        assert!(!Arc::ptr_eq(&p.functions[1], &q.functions[1]));
        assert_eq!(p.func(FuncId::new(1)).name, "b");
    }
}

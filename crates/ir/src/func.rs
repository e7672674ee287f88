//! Functions and their local variables.

use crate::ids::ComponentId;
use crate::visit;
use crate::{Block, ClassId, LocalId, StmtId, Ty};

/// How a local variable came to exist.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LocalKind {
    /// A declared parameter (never hideable — its value arrives from the
    /// open caller).
    Param,
    /// A `var` declaration in the body.
    Var,
    /// A compiler- or splitter-introduced temporary.
    Temp,
}

/// A local variable declaration.
#[derive(Clone, PartialEq, Debug)]
pub struct LocalDecl {
    /// Source-level name (synthesized for temporaries).
    pub name: String,
    /// Declared type.
    pub ty: Ty,
    /// Origin of the local.
    pub kind: LocalKind,
}

/// A function (or method) definition.
#[derive(Clone, PartialEq, Debug)]
pub struct Function {
    /// Function name; method names are stored unqualified.
    pub name: String,
    /// All locals; the first [`Function::num_params`] entries are the
    /// parameters, in declaration order. For methods, local 0 is the
    /// implicit `self` receiver.
    pub locals: Vec<LocalDecl>,
    /// Number of leading entries of `locals` that are parameters.
    pub num_params: usize,
    /// Return type ([`Ty::Void`] for procedures).
    pub ret_ty: Ty,
    /// The body.
    pub body: Block,
    /// The class this function is a method of, if any.
    pub class: Option<ClassId>,
    /// Set by the splitting transformation on the *open* version of a split
    /// function: the hidden component holding its missing fragments. The
    /// runtime uses this to open an activation on the secure side when the
    /// function is entered.
    pub split_component: Option<ComponentId>,
    /// Audit lint ids suppressed for the whole function via a source-level
    /// `@allow(...)` attribute on the `fn` declaration.
    pub allows: Vec<String>,
    next_stmt_id: u32,
}

impl Function {
    /// Creates an empty function with the given name and return type.
    pub fn new(name: impl Into<String>, ret_ty: Ty) -> Function {
        Function {
            name: name.into(),
            locals: Vec::new(),
            num_params: 0,
            ret_ty,
            body: Block::new(),
            class: None,
            split_component: None,
            allows: Vec::new(),
            next_stmt_id: 0,
        }
    }

    /// Returns `true` if the function suppresses the given audit lint id.
    pub fn allows_lint(&self, lint: &str) -> bool {
        self.allows.iter().any(|a| a == lint)
    }

    /// Adds a parameter; must be called before any [`Function::add_local`].
    ///
    /// # Panics
    ///
    /// Panics if a non-parameter local was already added.
    pub fn add_param(&mut self, name: impl Into<String>, ty: Ty) -> LocalId {
        assert_eq!(
            self.locals.len(),
            self.num_params,
            "parameters must be added before locals"
        );
        self.locals.push(LocalDecl {
            name: name.into(),
            ty,
            kind: LocalKind::Param,
        });
        self.num_params += 1;
        LocalId::new(self.locals.len() - 1)
    }

    /// Adds a body local.
    pub fn add_local(&mut self, name: impl Into<String>, ty: Ty) -> LocalId {
        self.locals.push(LocalDecl {
            name: name.into(),
            ty,
            kind: LocalKind::Var,
        });
        LocalId::new(self.locals.len() - 1)
    }

    /// Adds a synthesized temporary with a unique name.
    pub fn add_temp(&mut self, hint: &str, ty: Ty) -> LocalId {
        let name = format!("__{hint}{}", self.locals.len());
        self.locals.push(LocalDecl {
            name,
            ty,
            kind: LocalKind::Temp,
        });
        LocalId::new(self.locals.len() - 1)
    }

    /// The declaration of a local.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn local(&self, id: LocalId) -> &LocalDecl {
        &self.locals[id.index()]
    }

    /// Returns `true` if `id` names a parameter.
    pub fn is_param(&self, id: LocalId) -> bool {
        id.index() < self.num_params
    }

    /// Iterator over the parameter ids.
    pub fn param_ids(&self) -> impl Iterator<Item = LocalId> {
        (0..self.num_params).map(LocalId::new)
    }

    /// Looks up a local by name.
    pub fn local_by_name(&self, name: &str) -> Option<LocalId> {
        self.locals
            .iter()
            .position(|l| l.name == name)
            .map(LocalId::new)
    }

    /// Assigns dense, pre-order [`StmtId`]s to every statement in the body.
    ///
    /// Must be called after constructing or mutating the body and before
    /// running any analysis. Returns the number of statements.
    pub fn renumber(&mut self) -> usize {
        let mut next = 0u32;
        visit::for_each_stmt_mut(&mut self.body, &mut |stmt| {
            stmt.id = StmtId(next);
            next += 1;
        });
        self.next_stmt_id = next;
        next as usize
    }

    /// Whether the statement ids are already what [`Function::renumber`]
    /// would assign: dense and in pre-order.
    pub(crate) fn is_numbered(&self) -> bool {
        let mut next = 0u32;
        let mut dense = true;
        visit::for_each_stmt(&self.body, &mut |stmt| {
            dense &= stmt.id == StmtId(next);
            next += 1;
        });
        dense && next == self.next_stmt_id
    }

    /// Number of statements (valid after [`Function::renumber`]).
    pub fn stmt_count(&self) -> usize {
        self.next_stmt_id as usize
    }

    /// Returns the statement with the given id, if present.
    pub fn stmt(&self, id: StmtId) -> Option<&crate::Stmt> {
        visit::find_stmt(&self.body, id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Expr, Place, Stmt, StmtKind};

    fn two_stmt_fn() -> Function {
        let mut f = Function::new("t", Ty::Void);
        let x = f.add_param("x", Ty::Int);
        let y = f.add_local("y", Ty::Int);
        f.body.stmts.push(Stmt::new(StmtKind::Assign {
            place: Place::Local(y),
            value: Expr::local(x),
        }));
        f.body.stmts.push(Stmt::new(StmtKind::Return(None)));
        f
    }

    #[test]
    fn params_then_locals() {
        let f = two_stmt_fn();
        assert_eq!(f.num_params, 1);
        assert!(f.is_param(LocalId::new(0)));
        assert!(!f.is_param(LocalId::new(1)));
        assert_eq!(f.local_by_name("y"), Some(LocalId::new(1)));
        assert_eq!(f.local_by_name("z"), None);
        assert_eq!(f.param_ids().collect::<Vec<_>>(), vec![LocalId::new(0)]);
    }

    #[test]
    #[should_panic(expected = "parameters must be added before locals")]
    fn param_after_local_panics() {
        let mut f = Function::new("t", Ty::Void);
        f.add_local("y", Ty::Int);
        f.add_param("x", Ty::Int);
    }

    #[test]
    fn renumber_assigns_dense_preorder_ids() {
        let mut f = two_stmt_fn();
        assert_eq!(f.renumber(), 2);
        assert_eq!(f.body.stmts[0].id, StmtId::new(0));
        assert_eq!(f.body.stmts[1].id, StmtId::new(1));
        assert_eq!(f.stmt_count(), 2);
        assert!(f.stmt(StmtId::new(1)).is_some());
        assert!(f.stmt(StmtId::new(9)).is_none());
        assert!(f.is_numbered());
        f.body.stmts.swap(0, 1);
        assert!(!f.is_numbered());
    }

    #[test]
    fn temps_get_unique_names() {
        let mut f = Function::new("t", Ty::Void);
        let a = f.add_temp("t", Ty::Int);
        let b = f.add_temp("t", Ty::Int);
        assert_ne!(f.local(a).name, f.local(b).name);
        assert_eq!(f.local(a).kind, LocalKind::Temp);
    }
}

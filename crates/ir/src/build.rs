//! Programmatic construction of IR functions.
//!
//! [`FnBuilder`] is a small convenience layer used by tests, examples and
//! the splitter itself; real programs usually come from the `hps-lang`
//! parser.
//!
//! # Examples
//!
//! ```
//! use hps_ir::build::FnBuilder;
//! use hps_ir::{BinOp, Expr, Ty};
//!
//! // fn sum_to(n: int) -> int { var s = 0; var i = 0;
//! //   while (i < n) { s = s + i; i = i + 1; } return s; }
//! let mut fb = FnBuilder::new("sum_to", Ty::Int);
//! let n = fb.param("n", Ty::Int);
//! let s = fb.local("s", Ty::Int);
//! let i = fb.local("i", Ty::Int);
//! fb.assign_local(s, Expr::int(0));
//! fb.assign_local(i, Expr::int(0));
//! fb.while_loop(
//!     Expr::binary(BinOp::Lt, Expr::local(i), Expr::local(n)),
//!     |fb| {
//!         fb.assign_local(s, Expr::binary(BinOp::Add, Expr::local(s), Expr::local(i)));
//!         fb.assign_local(i, Expr::binary(BinOp::Add, Expr::local(i), Expr::int(1)));
//!     },
//! );
//! fb.ret(Some(Expr::local(s)));
//! let f = fb.finish();
//! assert_eq!(f.stmt_count(), 6);
//! ```

use crate::{Block, Expr, Function, LocalId, Place, Stmt, StmtKind, Ty};

/// Builder for a [`Function`] body.
#[derive(Debug)]
pub struct FnBuilder {
    func: Function,
    stack: Vec<Vec<Stmt>>,
}

impl FnBuilder {
    /// Starts building a function with the given name and return type.
    pub fn new(name: impl Into<String>, ret_ty: Ty) -> FnBuilder {
        FnBuilder {
            func: Function::new(name, ret_ty),
            stack: vec![Vec::new()],
        }
    }

    /// Declares a parameter.
    pub fn param(&mut self, name: impl Into<String>, ty: Ty) -> LocalId {
        self.func.add_param(name, ty)
    }

    /// Declares a body local.
    pub fn local(&mut self, name: impl Into<String>, ty: Ty) -> LocalId {
        self.func.add_local(name, ty)
    }

    /// Pushes an arbitrary statement.
    pub fn push(&mut self, kind: StmtKind) {
        self.stack
            .last_mut()
            .expect("builder block stack is never empty")
            .push(Stmt::new(kind));
    }

    /// `place = value;`
    pub fn assign(&mut self, place: Place, value: Expr) {
        self.push(StmtKind::Assign { place, value });
    }

    /// `local = value;`
    pub fn assign_local(&mut self, local: LocalId, value: Expr) {
        self.assign(Place::Local(local), value);
    }

    /// `base[index] = value;` where `base` is a local array variable.
    pub fn assign_index(&mut self, base: LocalId, index: Expr, value: Expr) {
        self.assign(
            Place::Index {
                base: Box::new(Place::Local(base)),
                index,
            },
            value,
        );
    }

    /// `while (cond) { body(...) }`
    pub fn while_loop(&mut self, cond: Expr, body: impl FnOnce(&mut FnBuilder)) {
        self.stack.push(Vec::new());
        body(self);
        let stmts = self.stack.pop().expect("matching push above");
        self.push(StmtKind::While {
            cond,
            body: Block::of(stmts),
        });
    }

    /// `if (cond) { then_body(...) } else { else_body(...) }`
    pub fn if_else(
        &mut self,
        cond: Expr,
        then_body: impl FnOnce(&mut FnBuilder),
        else_body: impl FnOnce(&mut FnBuilder),
    ) {
        self.stack.push(Vec::new());
        then_body(self);
        let then_stmts = self.stack.pop().expect("matching push above");
        self.stack.push(Vec::new());
        else_body(self);
        let else_stmts = self.stack.pop().expect("matching push above");
        self.push(StmtKind::If {
            cond,
            then_blk: Block::of(then_stmts),
            else_blk: Block::of(else_stmts),
        });
    }

    /// `return expr?;`
    pub fn ret(&mut self, expr: Option<Expr>) {
        self.push(StmtKind::Return(expr));
    }

    /// `print(expr);`
    pub fn print(&mut self, expr: Expr) {
        self.push(StmtKind::Print(expr));
    }

    /// Finishes the function: installs the body and numbers the statements.
    ///
    /// # Panics
    ///
    /// Panics if a control-flow scope opened by the builder was left
    /// unclosed (cannot happen through the public closure-based API).
    pub fn finish(mut self) -> Function {
        assert_eq!(self.stack.len(), 1, "unclosed control-flow scope");
        self.func.body = Block::of(self.stack.pop().expect("checked above"));
        self.func.renumber();
        self.func
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BinOp;

    #[test]
    fn builds_nested_structure() {
        let mut fb = FnBuilder::new("t", Ty::Void);
        let x = fb.param("x", Ty::Int);
        fb.if_else(
            Expr::binary(BinOp::Gt, Expr::local(x), Expr::int(0)),
            |fb| {
                fb.while_loop(Expr::bool(true), |fb| fb.push(StmtKind::Break));
            },
            |fb| fb.print(Expr::local(x)),
        );
        fb.ret(None);
        let f = fb.finish();
        // if, while, break, print, return
        assert_eq!(f.stmt_count(), 5);
        assert_eq!(f.body.stmts.len(), 2);
        match &f.body.stmts[0].kind {
            StmtKind::If {
                then_blk, else_blk, ..
            } => {
                assert_eq!(then_blk.len(), 1);
                assert_eq!(else_blk.len(), 1);
            }
            other => panic!("expected if, got {}", other.tag()),
        }
    }

    #[test]
    fn assign_index_builds_array_store() {
        let mut fb = FnBuilder::new("t", Ty::Void);
        let a = fb.param("a", Ty::Int.array_of());
        fb.assign_index(a, Expr::int(0), Expr::int(42));
        let f = fb.finish();
        match &f.body.stmts[0].kind {
            StmtKind::Assign { place, .. } => assert!(!place.is_whole_var()),
            other => panic!("expected assign, got {}", other.tag()),
        }
    }
}

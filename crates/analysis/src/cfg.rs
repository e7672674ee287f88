//! Statement-level control-flow graph.
//!
//! One node per statement (compound statements contribute their *condition
//! evaluation* as the node), plus a unique `Entry` and a unique `Exit`.
//! `return` edges go to `Exit`; `break`/`continue` edges go to the loop exit
//! / loop condition.

use hps_ir::{Function, Stmt, StmtId, StmtKind};

/// Index of a node in a [`Cfg`].
pub type NodeId = usize;

/// What a CFG node represents.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CfgNode {
    /// The unique function entry.
    Entry,
    /// The unique function exit.
    Exit,
    /// A statement (for `if`/`while`, the condition evaluation).
    Stmt(StmtId),
}

/// A control-flow graph over the statements of one function.
#[derive(Clone, Debug)]
pub struct Cfg {
    nodes: Vec<CfgNode>,
    succs: Vec<Vec<NodeId>>,
    preds: Vec<Vec<NodeId>>,
    stmt_node: Vec<NodeId>,
}

/// The entry node is always node 0.
pub const ENTRY: NodeId = 0;
/// The exit node is always node 1.
pub const EXIT: NodeId = 1;

impl Cfg {
    /// Builds the CFG of a (renumbered) function.
    ///
    /// # Panics
    ///
    /// Panics if the function contains unnumbered statements.
    pub fn build(func: &Function) -> Cfg {
        let count = func.stmt_count();
        let mut cfg = Cfg {
            nodes: vec![CfgNode::Entry, CfgNode::Exit],
            succs: vec![Vec::new(), Vec::new()],
            preds: vec![Vec::new(), Vec::new()],
            stmt_node: vec![usize::MAX; count],
        };
        // Allocate a node per statement, indexed by StmtId.
        hps_ir::visit::for_each_stmt(&func.body, &mut |stmt| {
            assert_ne!(stmt.id, Stmt::UNNUMBERED, "function must be renumbered");
            let node = cfg.nodes.len();
            cfg.nodes.push(CfgNode::Stmt(stmt.id));
            cfg.succs.push(Vec::new());
            cfg.preds.push(Vec::new());
            cfg.stmt_node[stmt.id.index()] = node;
        });
        let exits = cfg.wire_block(&func.body.stmts, vec![ENTRY], &mut Vec::new());
        for e in exits {
            cfg.add_edge(e, EXIT);
        }
        cfg
    }

    fn add_edge(&mut self, from: NodeId, to: NodeId) {
        if !self.succs[from].contains(&to) {
            self.succs[from].push(to);
            self.preds[to].push(from);
        }
    }

    /// Wires a statement list. `incoming` are the dangling edges that should
    /// enter the first statement; returns the dangling edges leaving the
    /// list. `loop_stack` holds `(cond_node, break_collector_index)` pairs;
    /// breaks are collected into per-loop vectors owned by the caller.
    fn wire_block(
        &mut self,
        stmts: &[Stmt],
        mut incoming: Vec<NodeId>,
        loop_stack: &mut Vec<LoopCtx>,
    ) -> Vec<NodeId> {
        for stmt in stmts {
            if incoming.is_empty() {
                // Unreachable code: keep the nodes but do not wire them in.
                // (The front end permits dead statements after return.)
            }
            let node = self.stmt_node[stmt.id.index()];
            for from in incoming.drain(..) {
                self.add_edge(from, node);
            }
            match &stmt.kind {
                StmtKind::If {
                    then_blk, else_blk, ..
                } => {
                    let then_exits = self.wire_block(&then_blk.stmts, vec![node], loop_stack);
                    let else_exits = if else_blk.is_empty() {
                        vec![node]
                    } else {
                        self.wire_block(&else_blk.stmts, vec![node], loop_stack)
                    };
                    incoming = then_exits;
                    incoming.extend(else_exits);
                }
                StmtKind::While { body, .. } => {
                    loop_stack.push(LoopCtx {
                        cond: node,
                        breaks: Vec::new(),
                    });
                    let body_exits = self.wire_block(&body.stmts, vec![node], loop_stack);
                    for e in body_exits {
                        self.add_edge(e, node);
                    }
                    let ctx = loop_stack.pop().expect("pushed above");
                    incoming = ctx.breaks;
                    // The condition's false edge.
                    incoming.push(node);
                }
                StmtKind::Return(_) => {
                    self.add_edge(node, EXIT);
                    // nothing flows past a return
                }
                StmtKind::Break => {
                    if let Some(ctx) = loop_stack.last_mut() {
                        ctx.breaks.push(node);
                    } else {
                        // Malformed IR (break outside loop): treat as exit.
                        self.add_edge(node, EXIT);
                    }
                }
                StmtKind::Continue => {
                    if let Some(ctx) = loop_stack.last() {
                        let cond = ctx.cond;
                        self.add_edge(node, cond);
                    } else {
                        self.add_edge(node, EXIT);
                    }
                }
                _ => incoming = vec![node],
            }
        }
        incoming
    }

    /// Number of nodes, including entry and exit.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Returns `true` if the graph has only entry and exit (empty body).
    pub fn is_empty(&self) -> bool {
        self.nodes.len() == 2
    }

    /// What the node represents.
    pub fn node(&self, id: NodeId) -> CfgNode {
        self.nodes[id]
    }

    /// Successor nodes.
    pub fn succs(&self, id: NodeId) -> &[NodeId] {
        &self.succs[id]
    }

    /// Predecessor nodes.
    pub fn preds(&self, id: NodeId) -> &[NodeId] {
        &self.preds[id]
    }

    /// The node of a statement.
    ///
    /// # Panics
    ///
    /// Panics if the statement id is unknown to this CFG.
    pub fn node_of(&self, stmt: StmtId) -> NodeId {
        let n = self.stmt_node[stmt.index()];
        assert_ne!(n, usize::MAX, "statement {stmt} not in CFG");
        n
    }

    /// The statement of a node, if it is a statement node.
    pub fn stmt_of(&self, node: NodeId) -> Option<StmtId> {
        match self.nodes[node] {
            CfgNode::Stmt(id) => Some(id),
            _ => None,
        }
    }

    /// The statement at every node (`None` for entry and exit), indexed by
    /// node: one walk of `func`, instead of a [`Function::stmt`] search per
    /// node. `func` must be the function this CFG was built from.
    pub fn stmts<'f>(&self, func: &'f Function) -> Vec<Option<&'f Stmt>> {
        let mut table = vec![None; self.nodes.len()];
        hps_ir::visit::for_each_stmt(&func.body, &mut |stmt| {
            table[self.node_of(stmt.id)] = Some(stmt);
        });
        table
    }

    /// Iterator over all node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        0..self.nodes.len()
    }

    /// Reverse postorder from the entry (forward direction).
    pub fn reverse_postorder(&self) -> Vec<NodeId> {
        self.rpo_from(ENTRY, false)
    }

    /// Reverse postorder from the exit over reversed edges (for backward
    /// problems such as post-dominance).
    pub fn reverse_postorder_backward(&self) -> Vec<NodeId> {
        self.rpo_from(EXIT, true)
    }

    fn rpo_from(&self, start: NodeId, backward: bool) -> Vec<NodeId> {
        let mut visited = vec![false; self.nodes.len()];
        let mut post = Vec::with_capacity(self.nodes.len());
        // Iterative DFS with explicit stack of (node, next-child-index).
        let mut stack = vec![(start, 0usize)];
        visited[start] = true;
        while let Some(&mut (node, ref mut idx)) = stack.last_mut() {
            let edges = if backward {
                &self.preds[node]
            } else {
                &self.succs[node]
            };
            if *idx < edges.len() {
                let child = edges[*idx];
                *idx += 1;
                if !visited[child] {
                    visited[child] = true;
                    stack.push((child, 0));
                }
            } else {
                post.push(node);
                stack.pop();
            }
        }
        post.reverse();
        post
    }
}

struct LoopCtx {
    cond: NodeId,
    breaks: Vec<NodeId>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use hps_ir::FuncId;

    fn cfg_of(src: &str) -> (hps_ir::Program, Cfg) {
        let p = hps_lang::parse(src).expect("parses");
        let cfg = Cfg::build(p.func(FuncId::new(0)));
        (p, cfg)
    }

    #[test]
    fn straight_line_chains() {
        let (_, cfg) = cfg_of("fn f() { var x: int = 1; x = 2; print(x); }");
        // entry -> s0 -> s1 -> s2 -> exit
        assert_eq!(cfg.succs(ENTRY), &[cfg.node_of(hps_ir::StmtId::new(0))]);
        let last = cfg.node_of(hps_ir::StmtId::new(2));
        assert_eq!(cfg.succs(last), &[EXIT]);
    }

    #[test]
    fn if_branches_rejoin() {
        let (_, cfg) =
            cfg_of("fn f(x: int) { if (x > 0) { print(1); } else { print(2); } print(3); }");
        let cond = cfg.node_of(hps_ir::StmtId::new(0));
        assert_eq!(cfg.succs(cond).len(), 2);
        let join = cfg.node_of(hps_ir::StmtId::new(3));
        assert_eq!(cfg.preds(join).len(), 2);
    }

    #[test]
    fn if_without_else_falls_through() {
        let (_, cfg) = cfg_of("fn f(x: int) { if (x > 0) { print(1); } print(3); }");
        let cond = cfg.node_of(hps_ir::StmtId::new(0));
        let join = cfg.node_of(hps_ir::StmtId::new(2));
        assert!(cfg.succs(cond).contains(&join));
    }

    #[test]
    fn while_loop_back_edge() {
        let (_, cfg) =
            cfg_of("fn f(n: int) { var i: int = 0; while (i < n) { i = i + 1; } print(i); }");
        let cond = cfg.node_of(hps_ir::StmtId::new(1));
        let body = cfg.node_of(hps_ir::StmtId::new(2));
        let after = cfg.node_of(hps_ir::StmtId::new(3));
        assert!(cfg.succs(cond).contains(&body));
        assert!(cfg.succs(cond).contains(&after));
        assert!(cfg.succs(body).contains(&cond));
    }

    #[test]
    fn break_exits_loop_continue_reenters() {
        let (_, cfg) = cfg_of(
            "fn f(n: int) {
                var i: int = 0;
                while (true) {
                    i = i + 1;
                    if (i > n) { break; }
                    continue;
                }
                print(i);
            }",
        );
        // s1=while, s2=i=i+1, s3=if, s4=break, s5=continue, s6=print
        let cond = cfg.node_of(hps_ir::StmtId::new(1));
        let brk = cfg.node_of(hps_ir::StmtId::new(4));
        let cont = cfg.node_of(hps_ir::StmtId::new(5));
        let after = cfg.node_of(hps_ir::StmtId::new(6));
        assert_eq!(cfg.succs(brk), &[after]);
        assert_eq!(cfg.succs(cont), &[cond]);
    }

    #[test]
    fn return_goes_to_exit_and_kills_fallthrough() {
        let (_, cfg) = cfg_of("fn f() -> int { return 1; }");
        let ret = cfg.node_of(hps_ir::StmtId::new(0));
        assert_eq!(cfg.succs(ret), &[EXIT]);
    }

    #[test]
    fn unreachable_code_has_no_preds() {
        let (_, cfg) = cfg_of("fn f() -> int { return 1; print(2); return 3; }");
        let dead = cfg.node_of(hps_ir::StmtId::new(1));
        assert!(cfg.preds(dead).is_empty());
    }

    #[test]
    fn reverse_postorder_starts_at_entry() {
        let (_, cfg) = cfg_of("fn f(n: int) { var i: int = 0; while (i < n) { i = i + 1; } }");
        let rpo = cfg.reverse_postorder();
        assert_eq!(rpo[0], ENTRY);
        let brpo = cfg.reverse_postorder_backward();
        assert_eq!(brpo[0], EXIT);
    }

    #[test]
    fn empty_function() {
        let (_, cfg) = cfg_of("fn f() { }");
        assert!(cfg.is_empty());
        assert_eq!(cfg.succs(ENTRY), &[EXIT]);
    }
}

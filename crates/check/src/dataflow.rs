//! Gradient-flow analysis over a recorded tape.
//!
//! [`analyze_gradient_flow`] answers, purely symbolically, the questions
//! a trainer would otherwise discover at runtime (or never): which
//! parameters actually receive gradient from a given loss node, which
//! recorded work is detached from the loss entirely, and which subtrees
//! are constant and could be folded out of the steady-state tape.
//!
//! The analysis recomputes, independently of the tape's own record-time
//! flags, which nodes need a gradient (a parameter leaf, or a node with
//! a [`gradient_parents`] entry that needs one) and intersects that with
//! the loss node's ancestors: the gradient cone, which is exactly where
//! `Tape::backward` allocates gradient buffers. [`gradient_parents`] is
//! the per-op declaration of which parents a backward rule can
//! propagate into; a rule skips those that need no gradient. Every op
//! declares all of its parents today, but the mapping is a non-wildcard
//! `match` so that a future op with stop-gradient semantics (or a new op
//! added without thinking about the analyses at all) is a compile error
//! here, not a silent gap.

use rapid_autograd::op::Op;
use rapid_autograd::{Tape, Var};

/// The parents that receive gradient from a node's backward rule, in
/// [`Op::parents`] order.
///
/// Deliberately an exhaustive per-variant `match` (no `_` arm, no
/// delegation to [`Op::parents`] in the catch-all position): this is the
/// single place where "gradient flows through this op" is declared, and
/// the compiler forces every new op to declare it.
pub fn gradient_parents(op: &Op) -> Vec<Var> {
    match op {
        Op::Leaf => vec![],
        Op::MatMul(a, b) => vec![*a, *b],
        Op::Transpose(a) => vec![*a],
        Op::Add(a, b) => vec![*a, *b],
        Op::Sub(a, b) => vec![*a, *b],
        Op::Mul(a, b) => vec![*a, *b],
        Op::Scale(a, _) => vec![*a],
        Op::AddScalar(a, _) => vec![*a],
        Op::AddRowBroadcast(a, b) => vec![*a, *b],
        Op::MulRowBroadcast(a, b) => vec![*a, *b],
        Op::MulColBroadcast(a, b) => vec![*a, *b],
        Op::Sigmoid(a) => vec![*a],
        Op::Tanh(a) => vec![*a],
        Op::Relu(a) => vec![*a],
        Op::Softplus(a) => vec![*a],
        Op::SoftmaxRows(a) => vec![*a],
        Op::NormalizeRows(a, _) => vec![*a],
        Op::ConcatCols(vs) => vs.clone(),
        Op::ConcatRows(vs) => vs.clone(),
        Op::SliceCols(a, _, _) => vec![*a],
        Op::SliceRows(a, _, _) => vec![*a],
        Op::SumAll(a) => vec![*a],
        Op::MeanAll(a) => vec![*a],
        Op::BceWithLogits { logits, .. } => vec![*logits],
        Op::Mse { pred, .. } => vec![*pred],
        Op::PairwiseLogistic { scores, .. } => vec![*scores],
        Op::LstmCell(s) => vec![s.x, s.h, s.c, s.w, s.u, s.b],
    }
}

/// A parameter that is bound on the tape but receives no gradient from
/// the analyzed loss node — training silently leaves it at its
/// initialization.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeadParam {
    /// `ParamId::index()` of the dead parameter.
    pub param: usize,
    /// The leaf node binding it (a tape binds a parameter once per
    /// generation); it does not reach the loss.
    pub binding: usize,
}

impl std::fmt::Display for DeadParam {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "param#{} (bound at node {}) never receives gradient",
            self.param, self.binding
        )
    }
}

/// What [`analyze_gradient_flow`] found.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GradFlowReport {
    /// The loss node the sweep started from.
    pub root: usize,
    /// Nodes in the gradient cone (ancestors of the root that need a
    /// gradient, root included): exactly the nodes `Tape::backward`
    /// gives a gradient buffer.
    pub live_nodes: usize,
    /// Parameters whose binding is inside the cone.
    pub trained_params: usize,
    /// Parameters bound on the tape whose binding is outside the cone.
    pub dead_params: Vec<DeadParam>,
    /// Connected components of nodes that are not ancestors of the root
    /// (edges are parent links restricted to those nodes), each listed
    /// in index order. Recorded work that cannot influence the loss.
    pub detached: Vec<Vec<usize>>,
    /// Non-leaf nodes whose entire ancestry is constant leaves: they
    /// recompute the same value every pass and could be folded into a
    /// precomputed constant.
    pub foldable_nodes: usize,
    /// The maximal roots of those constant subtrees (foldable nodes with
    /// no foldable consumer) — fold these and the rest follow.
    pub foldable_roots: Vec<usize>,
}

impl GradFlowReport {
    /// Total nodes that cannot influence the loss.
    pub fn detached_nodes(&self) -> usize {
        self.detached.iter().map(|c| c.len()).sum()
    }
}

impl std::fmt::Display for GradFlowReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "loss@{}: {} live nodes, {} trained params, {} dead params, \
             {} detached nodes in {} component(s), {} foldable nodes",
            self.root,
            self.live_nodes,
            self.trained_params,
            self.dead_params.len(),
            self.detached_nodes(),
            self.detached.len(),
            self.foldable_nodes
        )
    }
}

/// `needs[i]`: node `i` is a parameter leaf or has a gradient parent
/// that needs a gradient — the flag `Tape` sets at record time,
/// recomputed from the ops. Parent indices at or past their node
/// (malformed graphs) count as constants.
pub fn needs_gradient(tape: &Tape) -> Vec<bool> {
    let n = tape.len();
    let mut needs = vec![false; n];
    for i in 0..n {
        needs[i] = tape.node_param(i).is_some()
            || gradient_parents(tape.node_op(i))
                .iter()
                .any(|p| p.index() < i && needs[p.index()]);
    }
    needs
}

/// `anc[i]`: node `i` is `root` or one of its ancestors along the
/// `edges` an op declares ([`Op::parents`] for influence,
/// [`gradient_parents`] for gradient flow).
///
/// # Panics
/// Panics if `root` is out of range.
fn ancestors(tape: &Tape, root: usize, edges: fn(&Op) -> Vec<Var>) -> Vec<bool> {
    let n = tape.len();
    assert!(root < n, "root {root} out of range ({n} nodes)");
    let mut anc = vec![false; n];
    anc[root] = true;
    for i in (0..=root).rev() {
        if anc[i] {
            for p in edges(tape.node_op(i)) {
                if p.index() < i {
                    anc[p.index()] = true;
                }
            }
        }
    }
    anc
}

/// The gradient cone of `root`: `cone[i]` is `true` iff node `i` is an
/// ancestor of `root` (or `root` itself) that needs a gradient — exactly
/// the nodes `Tape::backward` allocates a gradient buffer for.
///
/// # Panics
/// Panics if `root` is out of range.
pub fn backward_cone(tape: &Tape, root: usize) -> Vec<bool> {
    let needs = needs_gradient(tape);
    let mut cone = ancestors(tape, root, gradient_parents);
    for (c, n) in cone.iter_mut().zip(needs) {
        *c &= n;
    }
    cone
}

/// Runs the gradient-flow analysis from loss node `root`.
///
/// The tape is assumed structurally valid (run [`crate::check_tape`]
/// first); parent indices at or past their node are ignored here rather
/// than reported again.
///
/// # Panics
/// Panics if `root` is out of range.
pub fn analyze_gradient_flow(tape: &Tape, root: usize) -> GradFlowReport {
    let n = tape.len();
    let cone = backward_cone(tape, root);
    let reaches = ancestors(tape, root, Op::parents);

    let mut trained_params = 0;
    let mut dead_params = Vec::new();
    for (i, &in_cone) in cone.iter().enumerate() {
        if let Some(id) = tape.node_param(i) {
            if in_cone {
                trained_params += 1;
            } else {
                dead_params.push(DeadParam {
                    param: id.index(),
                    binding: i,
                });
            }
        }
    }

    // Detached components: union-find over parent edges between nodes
    // that cannot reach the root.
    let mut uf: Vec<usize> = (0..n).collect();
    fn find(uf: &mut [usize], mut x: usize) -> usize {
        while uf[x] != x {
            uf[x] = uf[uf[x]];
            x = uf[x];
        }
        x
    }
    for i in 0..n {
        if reaches[i] {
            continue;
        }
        for p in tape.node_op(i).parents() {
            let p = p.index();
            if p < i && !reaches[p] {
                let (a, b) = (find(&mut uf, i), find(&mut uf, p));
                uf[a] = b;
            }
        }
    }
    let mut detached: Vec<Vec<usize>> = Vec::new();
    let mut root_of: Vec<(usize, usize)> = Vec::new(); // (uf root, detached idx)
    for (i, &r) in reaches.iter().enumerate() {
        if r {
            continue;
        }
        let r = find(&mut uf, i);
        match root_of.iter().find(|(rr, _)| *rr == r) {
            Some(&(_, idx)) => detached[idx].push(i),
            None => {
                root_of.push((r, detached.len()));
                detached.push(vec![i]);
            }
        }
    }

    // Constant subtrees: non-leaf nodes that need no gradient are
    // computed from constant leaves only. Foldable roots are those with
    // no constant non-leaf consumer.
    let needs = needs_gradient(tape);
    let foldable: Vec<bool> = (0..n)
        .map(|i| !needs[i] && !matches!(tape.node_op(i), Op::Leaf))
        .collect();
    let mut has_const_consumer = vec![false; n];
    for i in (0..n).filter(|&i| foldable[i]) {
        for p in tape.node_op(i).parents() {
            if p.index() < i {
                has_const_consumer[p.index()] = true;
            }
        }
    }
    let foldable_roots = (0..n)
        .filter(|&i| foldable[i] && !has_const_consumer[i])
        .collect();

    GradFlowReport {
        root,
        live_nodes: cone.iter().filter(|&&c| c).count(),
        trained_params,
        dead_params,
        detached,
        foldable_nodes: foldable.iter().filter(|&&f| f).count(),
        foldable_roots,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rapid_autograd::ParamStore;
    use rapid_tensor::Matrix;

    #[test]
    fn dead_parameter_is_reported_with_its_binding() {
        let mut store = ParamStore::new();
        let w = store.add("w", Matrix::ones(1, 2));
        let dead = store.add("dead", Matrix::ones(1, 3));
        let mut tape = Tape::new();
        let wv = tape.param(&store, w);
        let _unused = tape.param(&store, dead); // bound, never consumed
        let loss = tape.sum_all(wv);
        let report = analyze_gradient_flow(&tape, loss.index());
        assert_eq!(report.trained_params, 1);
        assert_eq!(
            report.dead_params,
            vec![DeadParam {
                param: dead.index(),
                binding: 1
            }]
        );
        assert_eq!(report.detached, vec![vec![1]]);
    }

    #[test]
    fn detached_components_are_grouped() {
        let mut tape = Tape::new();
        let a = tape.constant(Matrix::ones(1, 2));
        // Component 1: b -> c chain.
        let b = tape.constant(Matrix::ones(2, 2));
        let _c = tape.relu(b);
        // Component 2: a lone constant.
        let _d = tape.constant(Matrix::ones(3, 1));
        let loss = tape.sum_all(a);
        let report = analyze_gradient_flow(&tape, loss.index());
        assert_eq!(report.detached, vec![vec![1, 2], vec![3]]);
    }

    #[test]
    fn constant_subtrees_fold_to_maximal_roots() {
        let mut store = ParamStore::new();
        let w = store.add("w", Matrix::ones(2, 2));
        let mut tape = Tape::new();
        let c = tape.constant(Matrix::ones(2, 2));
        let scaled = tape.scale(c, 2.0); // const
        let shifted = tape.add_scalar(scaled, 1.0); // const, maximal
        let wv = tape.param(&store, w);
        let mixed = tape.mul(shifted, wv); // not const (param input)
        let loss = tape.sum_all(mixed);
        let report = analyze_gradient_flow(&tape, loss.index());
        assert_eq!(report.foldable_nodes, 2);
        assert_eq!(report.foldable_roots, vec![shifted.index()]);
        assert!(report.dead_params.is_empty());
        assert!(report.detached.is_empty());
    }

    #[test]
    fn cone_matches_backward_grad_allocation() {
        // The static cone must be exactly the set of nodes `backward`
        // allocates gradients for: ancestors of the loss that need one.
        let mut store = ParamStore::new();
        let w = store.add("w", Matrix::ones(2, 2));
        let mut tape = Tape::new();
        let x = tape.constant(Matrix::ones(1, 2));
        let wv = tape.param(&store, w);
        let h = tape.matmul(x, wv);
        let _detached = tape.relu(h); // recorded, not consumed by the loss
        let s = tape.sigmoid(h);
        let k = tape.scale(x, 2.0); // feeds the loss, needs no gradient
        let t = tape.add(s, k);
        let loss = tape.sum_all(t);
        let cone = backward_cone(&tape, loss.index());
        assert_eq!(
            cone,
            vec![false, true, true, false, true, false, true, true],
            "constants x and k and the detached relu are outside the cone"
        );
        tape.backward(loss, &mut store);
        for (i, &in_cone) in cone.iter().enumerate() {
            assert_eq!(
                in_cone,
                tape.node_grad_shape(i).is_some(),
                "node {i} ({})",
                tape.node_op(i).tag()
            );
        }
    }
}

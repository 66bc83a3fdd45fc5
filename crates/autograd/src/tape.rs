//! The recording tape: forward-pass graph construction and the reverse
//! sweep.

use crate::op::{LstmStep, Op};
use crate::params::{ParamId, ParamStore};
#[cfg(feature = "obs-profile")]
use crate::profile::TapeProfiler;
use rapid_tensor::{stable_sigmoid, Matrix};

/// Index of a node on a [`Tape`].
///
/// A `Var` is only meaningful for the tape *generation* it was recorded
/// in: [`Tape::clear`] bumps the tape's epoch, and in debug builds every
/// `Var` carries the epoch it was created in so that using a stale handle
/// against a cleared-and-refilled tape fails immediately at the use site
/// (instead of silently indexing into an unrelated node). Release builds
/// carry no epoch field — a `Var` is a plain index and the checks
/// compile away entirely.
#[derive(Debug, Clone, Copy)]
pub struct Var {
    pub(crate) idx: usize,
    /// Tape generation this handle was recorded in (debug builds only).
    #[cfg(debug_assertions)]
    pub(crate) epoch: u64,
}

impl Var {
    /// Position of this node on its tape (used by diagnostics and the
    /// `rapid-check` graph validator).
    pub fn index(self) -> usize {
        self.idx
    }
}

// Identity is the node index alone: two handles to the same node compare
// equal regardless of build mode, and `Hash` stays consistent with `Eq`.
impl PartialEq for Var {
    fn eq(&self, other: &Self) -> bool {
        self.idx == other.idx
    }
}

impl Eq for Var {}

impl std::hash::Hash for Var {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.idx.hash(state);
    }
}

struct Node {
    value: Matrix,
    grad: Option<Matrix>,
    op: Op,
    /// `Some` when this leaf is bound to a trainable parameter.
    param: Option<ParamId>,
    /// Set at record time: the node is a parameter leaf or has a parent
    /// that needs a gradient. Backward skips every other node.
    needs_grad: bool,
}

/// A single forward pass recorded as a flat arena of nodes.
///
/// Nodes are appended in topological order by construction (an op can only
/// reference already-created [`Var`]s), so the backward pass is a simple
/// reverse iteration — no sorting needed.
#[derive(Default)]
pub struct Tape {
    nodes: Vec<Node>,
    /// Generation counter, bumped by [`Tape::clear`]. Stamped into
    /// `Var`s in debug builds to catch use-after-clear.
    epoch: u64,
    /// `bound[id]`: the node holding parameter `id` in this generation.
    bound: Vec<Option<usize>>,
    /// Identity of the store this generation's parameters come from.
    bound_store: Option<u64>,
    /// Per-op forward/backward timing, flushed to the global `rapid-obs`
    /// registry on [`Tape::clear`] and on drop.
    #[cfg(feature = "obs-profile")]
    profiler: TapeProfiler,
}

#[cfg(feature = "obs-profile")]
impl Drop for Tape {
    fn drop(&mut self) {
        self.profiler.flush();
    }
}

impl Tape {
    /// Creates an empty tape.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a tape with room for `cap` nodes.
    pub fn with_capacity(cap: usize) -> Self {
        // Struct-update syntax would move out of a Drop type under
        // `obs-profile`; reserve on a default tape instead.
        let mut tape = Self::default();
        tape.nodes.reserve(cap);
        tape
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Drops all recorded nodes but keeps the arena's capacity, so one
    /// tape can be reused across mini-batches without reallocating.
    ///
    /// Clearing bumps the tape's epoch: `Var`s recorded before the clear
    /// are stale, and (in debug builds) any use of one afterwards panics
    /// immediately instead of reading whatever node later occupies the
    /// same index.
    ///
    /// It also forgets the parameter bindings: the next
    /// [`Tape::param`] copies the store's current value again.
    pub fn clear(&mut self) {
        #[cfg(feature = "obs-profile")]
        self.profiler.flush();
        self.nodes.clear();
        self.bound.clear();
        self.bound_store = None;
        self.epoch += 1;
    }

    /// The current generation; starts at 0 and increments on every
    /// [`Tape::clear`].
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// `true` when the tape has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Builds a handle to node `idx` stamped with the current epoch.
    fn mk_var(&self, idx: usize) -> Var {
        Var {
            idx,
            #[cfg(debug_assertions)]
            epoch: self.epoch,
        }
    }

    /// Debug-build guard: `v` must belong to the current tape epoch.
    #[inline]
    fn check_var(&self, v: Var) {
        #[cfg(debug_assertions)]
        debug_assert_eq!(
            v.epoch, self.epoch,
            "stale Var (node {}): recorded in tape epoch {} but the tape \
             is now at epoch {} — Tape::clear() was called; re-record the \
             graph instead of reusing old handles",
            v.idx, v.epoch, self.epoch
        );
        let _ = v;
    }

    /// `true` when any parent of `op` needs a gradient. Parents that do
    /// not exist (only [`Tape::push_unchecked`] can record them) count
    /// as constants.
    fn any_parent_needs_grad(&self, op: &Op) -> bool {
        let mut any = false;
        op.for_each_parent(|p| any |= self.nodes.get(p.idx).is_some_and(|n| n.needs_grad));
        any
    }

    fn push(&mut self, value: Matrix, op: Op, param: Option<ParamId>) -> Var {
        debug_assert!(
            value.is_finite(),
            "tape node {:?} produced non-finite values",
            op
        );
        #[cfg(feature = "obs-profile")]
        self.profiler.on_push(op.tag());
        let needs_grad = param.is_some() || self.any_parent_needs_grad(&op);
        self.nodes.push(Node {
            value,
            grad: None,
            op,
            param,
            needs_grad,
        });
        self.mk_var(self.nodes.len() - 1)
    }

    /// `true` when the reverse sweep computes a gradient for `v`.
    fn wants(&self, v: Var) -> bool {
        self.nodes[v.idx].needs_grad
    }

    /// Value of a node.
    pub fn value(&self, v: Var) -> &Matrix {
        self.check_var(v);
        &self.nodes[v.idx].value
    }

    /// Gradient of a node after [`Tape::backward`]; a zero matrix when
    /// backward gave the node no gradient buffer — it is not an ancestor
    /// of the loss, or it needs no gradient (a constant, or computed from
    /// constants only).
    pub fn grad(&self, v: Var) -> Matrix {
        self.check_var(v);
        let n = &self.nodes[v.idx];
        n.grad
            .clone()
            .unwrap_or_else(|| Matrix::zeros(n.value.rows(), n.value.cols()))
    }

    // -----------------------------------------------------------------
    // Graph introspection (used by the `rapid-check` static analyzer)
    // -----------------------------------------------------------------

    /// Op tag of node `i`. Panics if `i` is out of range.
    pub fn node_op(&self, i: usize) -> &Op {
        &self.nodes[i].op
    }

    /// Recorded value shape of node `i`. Panics if `i` is out of range.
    pub fn node_shape(&self, i: usize) -> (usize, usize) {
        self.nodes[i].value.shape()
    }

    /// Parameter binding of node `i` (`Some` only for parameter leaves).
    /// Panics if `i` is out of range.
    pub fn node_param(&self, i: usize) -> Option<ParamId> {
        self.nodes[i].param
    }

    /// Whether node `i` needs a gradient: it is a parameter leaf or has a
    /// parent that needs one. Panics if `i` is out of range.
    pub fn node_needs_grad(&self, i: usize) -> bool {
        self.nodes[i].needs_grad
    }

    /// Shape of node `i`'s gradient buffer, or `None` when no gradient
    /// has been accumulated there (the node is outside the loss cone or
    /// [`Tape::backward`] has not run). Panics if `i` is out of range.
    pub fn node_grad_shape(&self, i: usize) -> Option<(usize, usize)> {
        self.nodes[i].grad.as_ref().map(|g| g.shape())
    }

    /// Total bytes currently held by the tape's value buffers (`f32`
    /// elements; shape metadata is not counted). The measured side of
    /// the `rapid-check` liveness/memory-planning bound.
    pub fn value_bytes(&self) -> usize {
        self.nodes
            .iter()
            .map(|n| n.value.len() * std::mem::size_of::<f32>())
            .sum()
    }

    /// Total bytes currently held by allocated gradient buffers. Zero
    /// before [`Tape::backward`]; afterwards, exactly the ancestors of
    /// the loss that need a gradient.
    pub fn grad_bytes(&self) -> usize {
        self.nodes
            .iter()
            .filter_map(|n| n.grad.as_ref())
            .map(|g| g.len() * std::mem::size_of::<f32>())
            .sum()
    }

    /// Handle to node `idx` at the current epoch, without range checking.
    /// Intended for graph tooling and tests that need to reference nodes
    /// by index (e.g. to build deliberately malformed graphs).
    #[doc(hidden)]
    pub fn var_at(&self, idx: usize) -> Var {
        self.mk_var(idx)
    }

    /// Appends a node with an arbitrary `(value, op)` pair, bypassing
    /// the forward computation entirely. The value is **not** validated
    /// against the op, so the resulting graph may be inconsistent —
    /// that is the point: `rapid-check`'s tests use this to construct
    /// malformed graphs that `Tape::check` must reject. Never use it in
    /// model code.
    #[doc(hidden)]
    pub fn push_unchecked(&mut self, value: Matrix, op: Op) -> Var {
        let needs_grad = self.any_parent_needs_grad(&op);
        self.nodes.push(Node {
            value,
            grad: None,
            op,
            param: None,
            needs_grad,
        });
        self.mk_var(self.nodes.len() - 1)
    }

    // -----------------------------------------------------------------
    // Leaves
    // -----------------------------------------------------------------

    /// Records a constant (input) leaf. No gradient flows out of it.
    pub fn constant(&mut self, value: Matrix) -> Var {
        self.push(value, Op::Leaf, None)
    }

    /// Binds a parameter from `store` as a leaf; its gradient is
    /// accumulated back into the store by [`Tape::backward`].
    ///
    /// Each parameter is copied onto the tape once per generation: later
    /// calls for the same `id` return the same leaf, so every use of a
    /// parameter accumulates into one gradient buffer. [`Tape::clear`]
    /// resets the bindings.
    ///
    /// # Panics
    /// Panics (in release builds too) if this generation already bound
    /// parameters from a different store: ids from two stores would
    /// alias.
    pub fn param(&mut self, store: &ParamStore, id: ParamId) -> Var {
        let uid = store.uid();
        if self.bound_store.is_none() {
            self.bound_store = Some(uid);
            self.bound.resize(store.len(), None);
        }
        assert!(
            self.bound_store == Some(uid),
            "Tape::param: parameter `{}` comes from a second ParamStore in \
             one tape generation; clear() the tape before binding another store",
            store.name(id)
        );
        if let Some(&Some(idx)) = self.bound.get(id.index()) {
            return self.mk_var(idx);
        }
        let v = self.push(store.value(id).clone(), Op::Leaf, Some(id));
        if self.bound.len() <= id.index() {
            // The store grew after this generation's first binding.
            self.bound.resize(id.index() + 1, None);
        }
        self.bound[id.index()] = Some(v.idx);
        v
    }

    // -----------------------------------------------------------------
    // Ops (forward)
    // -----------------------------------------------------------------

    /// Matrix product.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).matmul(self.value(b));
        self.push(v, Op::MatMul(a, b), None)
    }

    /// Transpose.
    pub fn transpose(&mut self, a: Var) -> Var {
        let v = self.value(a).transpose();
        self.push(v, Op::Transpose(a), None)
    }

    /// Elementwise sum.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).add(self.value(b));
        self.push(v, Op::Add(a, b), None)
    }

    /// Elementwise difference.
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).sub(self.value(b));
        self.push(v, Op::Sub(a, b), None)
    }

    /// Elementwise product.
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).mul(self.value(b));
        self.push(v, Op::Mul(a, b), None)
    }

    /// Scalar multiple.
    pub fn scale(&mut self, a: Var, s: f32) -> Var {
        let v = self.value(a).scale(s);
        self.push(v, Op::Scale(a, s), None)
    }

    /// Scalar offset.
    pub fn add_scalar(&mut self, a: Var, s: f32) -> Var {
        let v = self.value(a).add_scalar(s);
        self.push(v, Op::AddScalar(a, s), None)
    }

    /// Bias add: `(n,m) + (1,m)`.
    pub fn add_row_broadcast(&mut self, a: Var, bias: Var) -> Var {
        let v = self.value(a).add_row_broadcast(self.value(bias));
        self.push(v, Op::AddRowBroadcast(a, bias), None)
    }

    /// Row-wise scaling: `(n,m) ⊙ (1,m)`.
    pub fn mul_row_broadcast(&mut self, a: Var, w: Var) -> Var {
        let v = self.value(a).mul_row_broadcast(self.value(w));
        self.push(v, Op::MulRowBroadcast(a, w), None)
    }

    /// Per-row scaling: `(n,m) ⊙ (n,1)`.
    pub fn mul_col_broadcast(&mut self, a: Var, w: Var) -> Var {
        let x = self.value(a);
        let col = self.value(w);
        assert_eq!(
            (x.rows(), 1),
            col.shape(),
            "mul_col_broadcast: expected {}x1 scaler, got {}x{}",
            x.rows(),
            col.rows(),
            col.cols()
        );
        let mut out = x.clone();
        for r in 0..out.rows() {
            let s = col.get(r, 0);
            for v in out.row_mut(r) {
                *v *= s;
            }
        }
        self.push(out, Op::MulColBroadcast(a, w), None)
    }

    /// Elementwise sigmoid.
    pub fn sigmoid(&mut self, a: Var) -> Var {
        let v = self.value(a).sigmoid();
        self.push(v, Op::Sigmoid(a), None)
    }

    /// Elementwise tanh.
    pub fn tanh(&mut self, a: Var) -> Var {
        let v = self.value(a).tanh();
        self.push(v, Op::Tanh(a), None)
    }

    /// Elementwise ReLU.
    pub fn relu(&mut self, a: Var) -> Var {
        let v = self.value(a).relu();
        self.push(v, Op::Relu(a), None)
    }

    /// Elementwise softplus `ln(1 + eˣ)` in stable form.
    pub fn softplus(&mut self, a: Var) -> Var {
        let v = self.value(a).map(|x| x.max(0.0) + (-x.abs()).exp().ln_1p());
        self.push(v, Op::Softplus(a), None)
    }

    /// Row-wise softmax.
    pub fn softmax_rows(&mut self, a: Var) -> Var {
        let v = self.value(a).softmax_rows();
        self.push(v, Op::SoftmaxRows(a), None)
    }

    /// Row-wise standardisation `(x − μ) / sqrt(σ² + eps)` — the
    /// normalisation core of layer norm (scale/shift are applied by the
    /// caller with broadcast ops so they remain ordinary parameters).
    pub fn normalize_rows(&mut self, a: Var, eps: f32) -> Var {
        let x = self.value(a);
        let mut out = x.clone();
        for r in 0..out.rows() {
            let row = out.row_mut(r);
            let n = row.len() as f32;
            let mean = row.iter().sum::<f32>() / n;
            let var = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / n;
            let inv = 1.0 / (var + eps).sqrt();
            for v in row.iter_mut() {
                *v = (*v - mean) * inv;
            }
        }
        self.push(out, Op::NormalizeRows(a, eps), None)
    }

    /// Horizontal concatenation of two or more vars.
    pub fn concat_cols(&mut self, parts: &[Var]) -> Var {
        assert!(!parts.is_empty(), "concat_cols: no parts");
        let mats: Vec<&Matrix> = parts.iter().map(|p| self.value(*p)).collect();
        let v = Matrix::concat_cols_all(&mats);
        self.push(v, Op::ConcatCols(parts.to_vec()), None)
    }

    /// Vertical concatenation of two or more vars.
    pub fn concat_rows(&mut self, parts: &[Var]) -> Var {
        assert!(!parts.is_empty(), "concat_rows: no parts");
        let mats: Vec<&Matrix> = parts.iter().map(|p| self.value(*p)).collect();
        let v = Matrix::concat_rows_all(&mats);
        self.push(v, Op::ConcatRows(parts.to_vec()), None)
    }

    /// Copy of columns `start..end`.
    pub fn slice_cols(&mut self, a: Var, start: usize, end: usize) -> Var {
        let v = self.value(a).slice_cols(start, end);
        self.push(v, Op::SliceCols(a, start, end), None)
    }

    /// Copy of rows `start..end`.
    pub fn slice_rows(&mut self, a: Var, start: usize, end: usize) -> Var {
        let v = self.value(a).slice_rows(start, end);
        self.push(v, Op::SliceRows(a, start, end), None)
    }

    /// `1x1` sum of all elements.
    pub fn sum_all(&mut self, a: Var) -> Var {
        let v = Matrix::full(1, 1, self.value(a).sum());
        self.push(v, Op::SumAll(a), None)
    }

    /// `1x1` mean of all elements.
    pub fn mean_all(&mut self, a: Var) -> Var {
        let v = Matrix::full(1, 1, self.value(a).mean());
        self.push(v, Op::MeanAll(a), None)
    }

    /// One fused LSTM step (gate order `[i, f, g, o]`): returns the
    /// `(B, 2h)` node `[h′ | c′]` with
    /// `[i f g o] = [σ σ tanh σ]((x·w + h·u) + b)`, `c′ = f ⊙ c + i ⊙ g`
    /// and `h′ = o ⊙ tanh(c′)`. The forward runs the unfused ops' matrix
    /// kernels in the same order, so the values are bit-identical to
    /// them; only the tape records one node instead of ~15.
    pub fn lstm_cell(&mut self, x: Var, h: Var, c: Var, w: Var, u: Var, b: Var) -> Var {
        let xw = self.value(x).matmul(self.value(w));
        let hu = self.value(h).matmul(self.value(u));
        let pre = xw.add(&hu).add_row_broadcast(self.value(b));
        let c_prev = self.value(c);
        let hid = c_prev.cols();
        assert_eq!(
            pre.shape(),
            (c_prev.rows(), 4 * hid),
            "lstm_cell: gates must be {}x{}",
            c_prev.rows(),
            4 * hid
        );
        let gate = |k: usize| pre.slice_cols(k * hid, (k + 1) * hid);
        let (i, f, g, o) = (
            gate(0).sigmoid(),
            gate(1).sigmoid(),
            gate(2).tanh(),
            gate(3).sigmoid(),
        );
        let c_new = f.mul(c_prev).add(&i.mul(&g));
        let tc = c_new.tanh();
        let out = o.mul(&tc).concat_cols(&c_new);
        let gates = Matrix::concat_cols_all(&[&i, &f, &g, &o, &tc]);
        let step = LstmStep {
            x,
            h,
            c,
            w,
            u,
            b,
            gates,
        };
        self.push(out, Op::LstmCell(Box::new(step)), None)
    }

    /// Records a loss node; see [`crate::loss`] for the public helpers.
    pub(crate) fn push_loss(&mut self, value: Matrix, op: Op) -> Var {
        self.push(value, op, None)
    }

    // -----------------------------------------------------------------
    // Backward
    // -----------------------------------------------------------------

    /// Runs the reverse sweep from `root` (which must be `1x1`) and
    /// accumulates parameter gradients into `store`.
    ///
    /// The sweep visits only the gradient cone: ancestors of `root` that
    /// need a gradient. Those nodes, and no others, get a gradient
    /// buffer, which stays on the tape so `tape.grad(v)` works for
    /// inspection after this call. A root computed from constants alone
    /// has an empty cone, and the call does nothing.
    ///
    /// # Panics
    /// Panics if `root` is not a `1x1` scalar node.
    pub fn backward(&mut self, root: Var, store: &mut ParamStore) {
        self.check_var(root);
        assert_eq!(
            self.nodes[root.idx].value.shape(),
            (1, 1),
            "backward: root must be a scalar (1x1) node"
        );
        if !self.nodes[root.idx].needs_grad {
            return;
        }
        self.nodes[root.idx].grad = Some(Matrix::ones(1, 1));

        for i in (0..=root.idx).rev() {
            let node = &mut self.nodes[i];
            if !node.needs_grad {
                continue;
            }
            let Some(up) = node.grad.take() else {
                continue;
            };
            // Take the op out for the split borrow; `propagate` writes
            // only to parents, so both go back unchanged.
            let op = std::mem::replace(&mut node.op, Op::Leaf);
            #[cfg(feature = "obs-profile")]
            let t0 = rapid_obs::clock::now();
            self.propagate(i, &op, &up);
            #[cfg(feature = "obs-profile")]
            self.profiler.on_backward(op.tag(), t0.elapsed());
            let node = &mut self.nodes[i];
            node.op = op;
            node.grad = Some(up);
        }

        // Accumulate leaf gradients into the parameter store.
        for node in &self.nodes {
            if let (Some(id), Some(g)) = (node.param, &node.grad) {
                store.grad_mut(id).add_assign(g);
            }
        }
    }

    fn accumulate(&mut self, v: Var, g: Matrix) {
        let node = &mut self.nodes[v.idx];
        debug_assert!(node.needs_grad, "gradient for a constant {:?}", node.op);
        debug_assert_eq!(
            node.value.shape(),
            g.shape(),
            "gradient shape mismatch for {:?}",
            node.op
        );
        match &mut node.grad {
            Some(acc) => acc.add_assign(&g),
            None => node.grad = Some(g),
        }
    }

    /// Applies the backward rule of node `i` (with op `op` and upstream
    /// gradient `up`), accumulating into its parents. Only parents that
    /// need a gradient get one; a single-parent op needs a gradient only
    /// because its parent does, so only multi-parent rules check.
    fn propagate(&mut self, i: usize, op: &Op, up: &Matrix) {
        match op {
            Op::Leaf => {}
            Op::MatMul(a, b) => {
                if self.wants(*a) {
                    let ga = up.matmul_bt(&self.nodes[b.idx].value);
                    self.accumulate(*a, ga);
                }
                if self.wants(*b) {
                    let gb = self.nodes[a.idx].value.matmul_at(up);
                    self.accumulate(*b, gb);
                }
            }
            Op::Transpose(a) => {
                self.accumulate(*a, up.transpose());
            }
            Op::Add(a, b) => {
                if self.wants(*a) {
                    self.accumulate(*a, up.clone());
                }
                if self.wants(*b) {
                    self.accumulate(*b, up.clone());
                }
            }
            Op::Sub(a, b) => {
                if self.wants(*a) {
                    self.accumulate(*a, up.clone());
                }
                if self.wants(*b) {
                    self.accumulate(*b, up.scale(-1.0));
                }
            }
            Op::Mul(a, b) => {
                if self.wants(*a) {
                    let ga = up.mul(&self.nodes[b.idx].value);
                    self.accumulate(*a, ga);
                }
                if self.wants(*b) {
                    let gb = up.mul(&self.nodes[a.idx].value);
                    self.accumulate(*b, gb);
                }
            }
            Op::Scale(a, s) => {
                self.accumulate(*a, up.scale(*s));
            }
            Op::AddScalar(a, _) => {
                self.accumulate(*a, up.clone());
            }
            Op::AddRowBroadcast(a, bias) => {
                if self.wants(*a) {
                    self.accumulate(*a, up.clone());
                }
                if self.wants(*bias) {
                    self.accumulate(*bias, up.sum_cols());
                }
            }
            Op::MulRowBroadcast(a, w) => {
                if self.wants(*a) {
                    let ga = up.mul_row_broadcast(&self.nodes[w.idx].value);
                    self.accumulate(*a, ga);
                }
                if self.wants(*w) {
                    let gw = up.mul(&self.nodes[a.idx].value).sum_cols();
                    self.accumulate(*w, gw);
                }
            }
            Op::MulColBroadcast(a, w) => {
                if self.wants(*a) {
                    let col = &self.nodes[w.idx].value;
                    let mut ga = up.clone();
                    for r in 0..ga.rows() {
                        let s = col.get(r, 0);
                        for v in ga.row_mut(r) {
                            *v *= s;
                        }
                    }
                    self.accumulate(*a, ga);
                }
                if self.wants(*w) {
                    let gw = up.mul(&self.nodes[a.idx].value).sum_rows();
                    self.accumulate(*w, gw);
                }
            }
            Op::Sigmoid(a) => {
                let y = &self.nodes[i].value;
                let g = up.mul(&y.zip_map(y, |yi, _| yi * (1.0 - yi)));
                self.accumulate(*a, g);
            }
            Op::Tanh(a) => {
                let y = &self.nodes[i].value;
                let g = up.mul(&y.map(|yi| 1.0 - yi * yi));
                self.accumulate(*a, g);
            }
            Op::Relu(a) => {
                let x = &self.nodes[a.idx].value;
                let g = up.zip_map(x, |u, xi| if xi > 0.0 { u } else { 0.0 });
                self.accumulate(*a, g);
            }
            Op::Softplus(a) => {
                let x = &self.nodes[a.idx].value;
                let g = up.mul(&x.sigmoid());
                self.accumulate(*a, g);
            }
            Op::SoftmaxRows(a) => {
                // Per row: dx = y ⊙ (du − ⟨du, y⟩)
                let y = self.nodes[i].value.clone();
                let mut g = Matrix::zeros(y.rows(), y.cols());
                for r in 0..y.rows() {
                    let yr = y.row(r);
                    let ur = up.row(r);
                    let dot: f32 = yr.iter().zip(ur).map(|(a, b)| a * b).sum();
                    for c in 0..y.cols() {
                        g.set(r, c, yr[c] * (ur[c] - dot));
                    }
                }
                self.accumulate(*a, g);
            }
            Op::NormalizeRows(a, eps) => {
                // With y = (x − μ)σ⁻¹:  dx = σ⁻¹ (dy − mean(dy) − y ⊙ mean(dy ⊙ y))
                let x = &self.nodes[a.idx].value;
                let y = &self.nodes[i].value;
                let mut g = Matrix::zeros(x.rows(), x.cols());
                for r in 0..x.rows() {
                    let xr = x.row(r);
                    let yr = y.row(r);
                    let ur = up.row(r);
                    let n = xr.len() as f32;
                    let mean = xr.iter().sum::<f32>() / n;
                    let var = xr.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / n;
                    let inv = 1.0 / (var + eps).sqrt();
                    let mean_dy = ur.iter().sum::<f32>() / n;
                    let mean_dy_y: f32 = ur.iter().zip(yr).map(|(u, yv)| u * yv).sum::<f32>() / n;
                    for c in 0..xr.len() {
                        g.set(r, c, inv * (ur[c] - mean_dy - yr[c] * mean_dy_y));
                    }
                }
                self.accumulate(*a, g);
            }
            Op::ConcatCols(parts) => {
                let mut start = 0;
                for p in parts {
                    let w = self.nodes[p.idx].value.cols();
                    if self.wants(*p) {
                        self.accumulate(*p, up.slice_cols(start, start + w));
                    }
                    start += w;
                }
            }
            Op::ConcatRows(parts) => {
                let mut start = 0;
                for p in parts {
                    let h = self.nodes[p.idx].value.rows();
                    if self.wants(*p) {
                        self.accumulate(*p, up.slice_rows(start, start + h));
                    }
                    start += h;
                }
            }
            Op::SliceCols(a, start, end) => {
                let src = &self.nodes[a.idx].value;
                let mut g = Matrix::zeros(src.rows(), src.cols());
                for r in 0..up.rows() {
                    for (c, v) in up.row(r).iter().enumerate() {
                        g.set(r, start + c, *v);
                    }
                }
                let _ = end;
                self.accumulate(*a, g);
            }
            Op::SliceRows(a, start, _end) => {
                let src = &self.nodes[a.idx].value;
                let mut g = Matrix::zeros(src.rows(), src.cols());
                for r in 0..up.rows() {
                    for (c, v) in up.row(r).iter().enumerate() {
                        g.set(start + r, c, *v);
                    }
                }
                self.accumulate(*a, g);
            }
            Op::SumAll(a) => {
                let s = up.get(0, 0);
                let src = &self.nodes[a.idx].value;
                self.accumulate(*a, Matrix::full(src.rows(), src.cols(), s));
            }
            Op::MeanAll(a) => {
                let src = &self.nodes[a.idx].value;
                let s = up.get(0, 0) / src.len().max(1) as f32;
                self.accumulate(*a, Matrix::full(src.rows(), src.cols(), s));
            }
            Op::BceWithLogits { logits, targets } => {
                // d/dz mean BCE = (σ(z) − y) / N
                let z = &self.nodes[logits.idx].value;
                let n = z.len().max(1) as f32;
                let s = up.get(0, 0) / n;
                let g = z.sigmoid().sub(targets).scale(s);
                self.accumulate(*logits, g);
            }
            Op::Mse { pred, targets } => {
                let p = &self.nodes[pred.idx].value;
                let n = p.len().max(1) as f32;
                let s = 2.0 * up.get(0, 0) / n;
                let g = p.sub(targets).scale(s);
                self.accumulate(*pred, g);
            }
            Op::PairwiseLogistic { scores, labels } => {
                let s = &self.nodes[scores.idx].value;
                let flat = s.as_slice();
                let mut g = vec![0.0f32; flat.len()];
                let mut pairs = 0usize;
                for &yi in labels {
                    for &yj in labels {
                        if yi > yj {
                            pairs += 1;
                        }
                    }
                }
                if pairs > 0 {
                    let scale = up.get(0, 0) / pairs as f32;
                    for (i_pos, &yi) in labels.iter().enumerate() {
                        for (j_neg, &yj) in labels.iter().enumerate() {
                            if yi > yj {
                                // d/ds_i ln(1+e^{-(s_i-s_j)}) = -σ(-(s_i-s_j))
                                let diff = flat[i_pos] - flat[j_neg];
                                let sig = stable_sigmoid(-diff);
                                g[i_pos] -= sig * scale;
                                g[j_neg] += sig * scale;
                            }
                        }
                    }
                }
                let gm = Matrix::from_vec(s.rows(), s.cols(), g);
                self.accumulate(*scores, gm);
            }
            Op::LstmCell(step) => {
                let LstmStep {
                    x,
                    h,
                    c,
                    w,
                    u,
                    b,
                    gates,
                } = &**step;
                // With c′ = f⊙c + i⊙g and h′ = o⊙tanh(c′), the upstream
                // [dh′ | dc′] gives the pre-activation gate gradient dz
                // and dc = dc′ + dh′⊙o⊙(1 − tanh²c′); then
                // dx = dz·wᵀ, dw = xᵀ·dz, dh = dz·uᵀ, du = hᵀ·dz,
                // db = Σ_rows dz, dc_prev = dc⊙f.
                let c_prev = &self.nodes[c.idx].value;
                let (rows, hid) = c_prev.shape();
                let mut dz = Matrix::zeros(rows, 4 * hid);
                let mut dc_prev = Matrix::zeros(rows, hid);
                for r in 0..rows {
                    let (g, ur, cp) = (gates.row(r), up.row(r), c_prev.row(r));
                    let (dz_r, dcp_r) = (dz.row_mut(r), dc_prev.row_mut(r));
                    for j in 0..hid {
                        let (ig, fg, gg, og) = (g[j], g[hid + j], g[2 * hid + j], g[3 * hid + j]);
                        let ct = g[4 * hid + j];
                        let dh = ur[j];
                        let dc = ur[hid + j] + dh * og * (1.0 - ct * ct);
                        dz_r[j] = dc * gg * (ig * (1.0 - ig));
                        dz_r[hid + j] = dc * cp[j] * (fg * (1.0 - fg));
                        dz_r[2 * hid + j] = dc * ig * (1.0 - gg * gg);
                        dz_r[3 * hid + j] = dh * ct * (og * (1.0 - og));
                        dcp_r[j] = dc * fg;
                    }
                }
                if self.wants(*x) {
                    let gx = dz.matmul_bt(&self.nodes[w.idx].value);
                    self.accumulate(*x, gx);
                }
                if self.wants(*h) {
                    let gh = dz.matmul_bt(&self.nodes[u.idx].value);
                    self.accumulate(*h, gh);
                }
                if self.wants(*c) {
                    self.accumulate(*c, dc_prev);
                }
                if self.wants(*w) {
                    let gw = self.nodes[x.idx].value.matmul_at(&dz);
                    self.accumulate(*w, gw);
                }
                if self.wants(*u) {
                    let gu = self.nodes[h.idx].value.matmul_at(&dz);
                    self.accumulate(*u, gu);
                }
                if self.wants(*b) {
                    self.accumulate(*b, dz.sum_cols());
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_chain_gradients() {
        // f(w) = sum(sigmoid(x·w)) for fixed x
        let mut store = ParamStore::new();
        let w = store.add("w", Matrix::from_rows(&[&[0.5], &[-0.5]]));
        let mut tape = Tape::new();
        let x = tape.constant(Matrix::row_vector(&[1.0, 2.0]));
        let wv = tape.param(&store, w);
        let z = tape.matmul(x, wv);
        let y = tape.sigmoid(z);
        let loss = tape.sum_all(y);
        tape.backward(loss, &mut store);

        // z = 0.5 - 1.0 = -0.5; σ(z) ≈ 0.37754; dσ = σ(1-σ) ≈ 0.235
        let sig = 1.0 / (1.0 + 0.5f32.exp());
        let dsig = sig * (1.0 - sig);
        let g = store.grad(w);
        assert!((g.get(0, 0) - dsig * 1.0).abs() < 1e-5);
        assert!((g.get(1, 0) - dsig * 2.0).abs() < 1e-5);
    }

    #[test]
    fn grads_accumulate_across_shared_use() {
        // loss = sum(w + w) → dw = 2 per element
        let mut store = ParamStore::new();
        let w = store.add("w", Matrix::ones(1, 3));
        let mut tape = Tape::new();
        let wv = tape.param(&store, w);
        let s = tape.add(wv, wv);
        let loss = tape.sum_all(s);
        tape.backward(loss, &mut store);
        assert_eq!(store.grad(w).as_slice(), &[2.0, 2.0, 2.0]);
    }

    #[test]
    fn constants_do_not_touch_store() {
        let mut store = ParamStore::new();
        let mut tape = Tape::new();
        let c = tape.constant(Matrix::ones(1, 2));
        let loss = tape.sum_all(c);
        tape.backward(loss, &mut store);
        assert!(store.is_empty());
        // A constant needs no gradient, so backward allocates none for
        // it (nor for the loss computed from it alone).
        assert_eq!(tape.node_grad_shape(c.index()), None);
        assert_eq!(tape.node_grad_shape(loss.index()), None);
        assert_eq!(tape.grad_bytes(), 0);
        assert_eq!(tape.grad(c).as_slice(), &[0.0, 0.0]);
    }

    #[test]
    fn matmul_against_a_constant_gives_only_the_parameter_a_gradient() {
        let mut store = ParamStore::new();
        let w = store.add("w", Matrix::from_rows(&[&[1.0], &[2.0]]));
        let mut tape = Tape::new();
        let x = tape.constant(Matrix::from_rows(&[&[3.0, 4.0], &[5.0, 6.0]]));
        let wv = tape.param(&store, w);
        let y = tape.matmul(x, wv);
        let loss = tape.sum_all(y);
        tape.backward(loss, &mut store);
        assert_eq!(tape.node_grad_shape(x.index()), None);
        assert_eq!(tape.node_grad_shape(wv.index()), Some((2, 1)));
        // dW = xᵀ · 1 = column sums of x.
        assert_eq!(store.grad(w).as_slice(), &[8.0, 10.0]);
    }

    #[test]
    fn a_parameter_is_bound_once_per_generation() {
        let mut store = ParamStore::new();
        let w = store.add("w", Matrix::ones(1, 2));
        let mut tape = Tape::new();
        let first = tape.param(&store, w);
        let second = tape.param(&store, w);
        assert_eq!(first, second);
        assert_eq!(tape.len(), 1);
        // Both uses accumulate on the one leaf, then into the store once.
        let s = tape.add(first, second);
        let loss = tape.sum_all(s);
        tape.backward(loss, &mut store);
        assert_eq!(store.grad(w).as_slice(), &[2.0, 2.0]);
        // A new generation copies the (possibly updated) value again.
        tape.clear();
        *store.value_mut(w) = Matrix::full(1, 2, 5.0);
        let again = tape.param(&store, w);
        assert_eq!(tape.value(again).as_slice(), &[5.0, 5.0]);
    }

    #[test]
    #[should_panic(expected = "second ParamStore")]
    fn binding_from_a_second_store_panics() {
        let mut a = ParamStore::new();
        let wa = a.add("a.w", Matrix::ones(1, 1));
        // A clone is a different store even though its ids coincide.
        let b = a.clone();
        let mut tape = Tape::new();
        tape.param(&a, wa);
        tape.param(&b, wa);
    }

    #[test]
    fn another_store_binds_after_clear() {
        let mut a = ParamStore::new();
        let wa = a.add("a.w", Matrix::ones(1, 1));
        let b = a.clone();
        let mut tape = Tape::new();
        tape.param(&a, wa);
        tape.clear();
        let wb = tape.param(&b, wa);
        assert_eq!(tape.value(wb).as_slice(), &[1.0]);
    }

    #[test]
    fn stable_sigmoid_of_minus_x_is_the_old_split_form_bit_for_bit() {
        // The pairwise rule used a private split-form σ(−x); it now calls
        // `stable_sigmoid(-x)`. Same branches, same arithmetic.
        let old = |x: f32| {
            if x >= 0.0 {
                let e = (-x).exp();
                e / (1.0 + e)
            } else {
                1.0 / (1.0 + x.exp())
            }
        };
        for k in -4000..=4000 {
            let x = k as f32 * 0.01;
            assert_eq!(stable_sigmoid(-x).to_bits(), old(x).to_bits(), "x = {x}");
        }
        assert_eq!(stable_sigmoid(0.0).to_bits(), old(-0.0).to_bits());
    }

    #[test]
    fn concat_and_slice_route_gradients() {
        let mut store = ParamStore::new();
        let a = store.add("a", Matrix::ones(1, 2));
        let b = store.add("b", Matrix::ones(1, 3));
        let mut tape = Tape::new();
        let av = tape.param(&store, a);
        let bv = tape.param(&store, b);
        let cat = tape.concat_cols(&[av, bv]); // 1x5
        let right = tape.slice_cols(cat, 3, 5); // last 2 cols → from b
        let loss = tape.sum_all(right);
        tape.backward(loss, &mut store);
        assert_eq!(store.grad(a).as_slice(), &[0.0, 0.0]);
        assert_eq!(store.grad(b).as_slice(), &[0.0, 1.0, 1.0]);
    }

    #[test]
    fn clear_retains_capacity_and_resets_nodes() {
        let mut store = ParamStore::new();
        let w = store.add("w", Matrix::ones(1, 2));
        let mut tape = Tape::with_capacity(8);
        let wv = tape.param(&store, w);
        let loss = tape.sum_all(wv);
        tape.backward(loss, &mut store);
        assert_eq!(store.grad(w).as_slice(), &[1.0, 1.0]);

        tape.clear();
        assert!(tape.is_empty());
        // A second, identical pass over the cleared tape accumulates the
        // same gradients again.
        let wv = tape.param(&store, w);
        let loss = tape.sum_all(wv);
        tape.backward(loss, &mut store);
        assert_eq!(store.grad(w).as_slice(), &[2.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "root must be a scalar")]
    fn backward_rejects_non_scalar_root() {
        let mut store = ParamStore::new();
        let mut tape = Tape::new();
        let c = tape.constant(Matrix::ones(2, 2));
        tape.backward(c, &mut store);
    }
}

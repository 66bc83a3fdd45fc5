//! LSTM cell, unidirectional LSTM, and Bi-LSTM.
//!
//! The Bi-LSTM is the paper's listwise relevance estimator (§III-B): it
//! encodes the initial ranking list in both directions and concatenates
//! the two hidden states per position. The unidirectional LSTM encodes
//! the per-topic behavior sequences of the personalized diversity
//! estimator (§III-C).

use rand::Rng;
use rapid_autograd::{ParamId, ParamStore, Tape, Var};
use rapid_tensor::Matrix;

/// A single LSTM cell with gate order `[i, f, g, o]` packed into one
/// `(in, 4h)` input matrix and one `(h, 4h)` recurrent matrix.
///
/// The forget-gate bias is initialised to 1, the standard trick for
/// healthy gradient flow early in training.
#[derive(Debug, Clone)]
pub struct LstmCell {
    w: ParamId,
    u: ParamId,
    b: ParamId,
    in_dim: usize,
    hidden: usize,
}

impl LstmCell {
    /// Registers an LSTM cell under `prefix`.
    pub fn new(
        store: &mut ParamStore,
        prefix: &str,
        in_dim: usize,
        hidden: usize,
        rng: &mut impl Rng,
    ) -> Self {
        let w = store.add(
            format!("{prefix}.w"),
            Matrix::xavier_uniform(in_dim, 4 * hidden, rng),
        );
        let u = store.add(
            format!("{prefix}.u"),
            Matrix::xavier_uniform(hidden, 4 * hidden, rng),
        );
        let mut bias = Matrix::zeros(1, 4 * hidden);
        for c in hidden..2 * hidden {
            bias.set(0, c, 1.0); // forget gate bias
        }
        let b = store.add(format!("{prefix}.b"), bias);
        Self {
            w,
            u,
            b,
            in_dim,
            hidden,
        }
    }

    /// Hidden state size.
    pub fn hidden(&self) -> usize {
        self.hidden
    }

    /// Input feature dimension.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// One step: takes `(B, in)` input and `(B, h)` previous hidden and
    /// cell states; returns the new `(h, c)`. The step is one fused
    /// [`Tape::lstm_cell`] node, sliced into its two halves.
    pub fn step(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        x: Var,
        h_prev: Var,
        c_prev: Var,
    ) -> (Var, Var) {
        let w = tape.param(store, self.w);
        let u = tape.param(store, self.u);
        let b = tape.param(store, self.b);
        let cell = tape.lstm_cell(x, h_prev, c_prev, w, u, b);
        let h = tape.slice_cols(cell, 0, self.hidden);
        let c = tape.slice_cols(cell, self.hidden, 2 * self.hidden);
        (h, c)
    }

    /// Zero-valued initial `(h, c)` pair for a batch of size `batch`.
    pub fn zero_state(&self, tape: &mut Tape, batch: usize) -> (Var, Var) {
        let h = tape.constant(Matrix::zeros(batch, self.hidden));
        let c = tape.constant(Matrix::zeros(batch, self.hidden));
        (h, c)
    }
}

/// Unidirectional LSTM over a time-major batched sequence.
#[derive(Debug, Clone)]
pub struct Lstm {
    cell: LstmCell,
}

impl Lstm {
    /// Registers an LSTM under `prefix`.
    pub fn new(
        store: &mut ParamStore,
        prefix: &str,
        in_dim: usize,
        hidden: usize,
        rng: &mut impl Rng,
    ) -> Self {
        Self {
            cell: LstmCell::new(store, prefix, in_dim, hidden, rng),
        }
    }

    /// Hidden state size.
    pub fn hidden(&self) -> usize {
        self.cell.hidden()
    }

    /// Runs over `inputs` (each `(B, in)`), returning the hidden state at
    /// every step. The last element is the sequence encoding `z_{j,D}`
    /// used by the paper as the topic representation.
    ///
    /// # Panics
    /// Panics if `inputs` is empty.
    pub fn forward(&self, tape: &mut Tape, store: &ParamStore, inputs: &[Var]) -> Vec<Var> {
        assert!(!inputs.is_empty(), "Lstm::forward: empty sequence");
        let batch = tape.value(inputs[0]).rows();
        let (mut h, mut c) = self.cell.zero_state(tape, batch);
        let mut out = Vec::with_capacity(inputs.len());
        for &x in inputs {
            let (h2, c2) = self.cell.step(tape, store, x, h, c);
            h = h2;
            c = c2;
            out.push(h);
        }
        out
    }
}

/// Bidirectional LSTM: a forward and a backward pass whose hidden states
/// are concatenated per step into `(B, 2h)` — the `h_{R(i)}` of §III-B.
#[derive(Debug, Clone)]
pub struct BiLstm {
    fwd: LstmCell,
    bwd: LstmCell,
}

impl BiLstm {
    /// Registers a Bi-LSTM under `prefix`.
    pub fn new(
        store: &mut ParamStore,
        prefix: &str,
        in_dim: usize,
        hidden: usize,
        rng: &mut impl Rng,
    ) -> Self {
        Self {
            fwd: LstmCell::new(store, &format!("{prefix}.fwd"), in_dim, hidden, rng),
            bwd: LstmCell::new(store, &format!("{prefix}.bwd"), in_dim, hidden, rng),
        }
    }

    /// Per-direction hidden size (outputs are `2 *` this).
    pub fn hidden(&self) -> usize {
        self.fwd.hidden()
    }

    /// Runs both directions over `inputs`, returning one `(B, 2h)` var
    /// per step: `[→h_i, ←h_i]`.
    ///
    /// # Panics
    /// Panics if `inputs` is empty.
    pub fn forward(&self, tape: &mut Tape, store: &ParamStore, inputs: &[Var]) -> Vec<Var> {
        assert!(!inputs.is_empty(), "BiLstm::forward: empty sequence");
        let batch = tape.value(inputs[0]).rows();
        let t_len = inputs.len();

        let (mut h, mut c) = self.fwd.zero_state(tape, batch);
        let mut fwd_states = Vec::with_capacity(t_len);
        for &x in inputs {
            let (h2, c2) = self.fwd.step(tape, store, x, h, c);
            h = h2;
            c = c2;
            fwd_states.push(h);
        }

        let (mut h, mut c) = self.bwd.zero_state(tape, batch);
        let mut bwd_states = vec![fwd_states[0]; t_len]; // placeholder, overwritten below
        for (idx, &x) in inputs.iter().enumerate().rev() {
            let (h2, c2) = self.bwd.step(tape, store, x, h, c);
            h = h2;
            c = c2;
            bwd_states[idx] = h;
        }

        fwd_states
            .into_iter()
            .zip(bwd_states)
            .map(|(f, b)| tape.concat_cols(&[f, b]))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rapid_autograd::gradcheck::check_gradients;

    fn seq(rng: &mut impl Rng, t: usize, b: usize, d: usize) -> Vec<Matrix> {
        (0..t)
            .map(|_| Matrix::rand_uniform(b, d, -1.0, 1.0, rng))
            .collect()
    }

    #[test]
    fn lstm_output_shapes() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut store = ParamStore::new();
        let lstm = Lstm::new(&mut store, "l", 3, 5, &mut rng);
        let xs = seq(&mut rng, 4, 2, 3);
        let mut tape = Tape::new();
        let vars: Vec<Var> = xs.iter().map(|m| tape.constant(m.clone())).collect();
        let out = lstm.forward(&mut tape, &store, &vars);
        assert_eq!(out.len(), 4);
        for o in &out {
            assert_eq!(tape.value(*o).shape(), (2, 5));
        }
    }

    #[test]
    fn lstm_states_are_bounded_by_tanh() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut store = ParamStore::new();
        let lstm = Lstm::new(&mut store, "l", 2, 4, &mut rng);
        let xs = seq(&mut rng, 10, 1, 2);
        let mut tape = Tape::new();
        let vars: Vec<Var> = xs.iter().map(|m| tape.constant(m.scale(10.0))).collect();
        let out = lstm.forward(&mut tape, &store, &vars);
        let last = tape.value(*out.last().unwrap());
        assert!(last.as_slice().iter().all(|v| v.abs() <= 1.0));
    }

    #[test]
    fn bilstm_concatenates_directions() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut store = ParamStore::new();
        let bi = BiLstm::new(&mut store, "b", 3, 4, &mut rng);
        let xs = seq(&mut rng, 5, 2, 3);
        let mut tape = Tape::new();
        let vars: Vec<Var> = xs.iter().map(|m| tape.constant(m.clone())).collect();
        let out = bi.forward(&mut tape, &store, &vars);
        assert_eq!(out.len(), 5);
        assert_eq!(tape.value(out[0]).shape(), (2, 8));
    }

    #[test]
    fn bilstm_first_step_backward_half_sees_whole_sequence() {
        // The backward direction's state at position 0 must depend on the
        // *last* input; zeroing the last input must change it.
        let mut rng = StdRng::seed_from_u64(2);
        let mut store = ParamStore::new();
        let bi = BiLstm::new(&mut store, "b", 2, 3, &mut rng);
        let xs = seq(&mut rng, 4, 1, 2);

        let run = |xs: &[Matrix], store: &ParamStore| {
            let mut tape = Tape::new();
            let vars: Vec<Var> = xs.iter().map(|m| tape.constant(m.clone())).collect();
            let out = bi.forward(&mut tape, store, &vars);
            tape.value(out[0]).clone()
        };
        let base = run(&xs, &store);
        let mut changed = xs.clone();
        changed[3] = Matrix::zeros(1, 2);
        let alt = run(&changed, &store);
        // forward half (first 3 cols) unchanged, backward half changed
        assert_eq!(base.slice_cols(0, 3), alt.slice_cols(0, 3));
        assert_ne!(base.slice_cols(3, 6), alt.slice_cols(3, 6));
    }

    #[test]
    fn lstm_gradients_check_out() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut store = ParamStore::new();
        let lstm = Lstm::new(&mut store, "l", 2, 3, &mut rng);
        let xs = seq(&mut rng, 3, 2, 2);
        let t = Matrix::rand_uniform(2, 3, -1.0, 1.0, &mut rng);
        let report = check_gradients(
            &mut store,
            |tape, store| {
                let vars: Vec<Var> = xs.iter().map(|m| tape.constant(m.clone())).collect();
                let out = lstm.forward(tape, store, &vars);
                let last = *out.last().unwrap();
                tape.mse(last, &t)
            },
            5e-3,
        );
        assert!(report.passes(2e-2), "{report:?}");
    }

    #[test]
    fn bilstm_gradients_check_out() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut store = ParamStore::new();
        let bi = BiLstm::new(&mut store, "b", 2, 2, &mut rng);
        let xs = seq(&mut rng, 3, 1, 2);
        let t = Matrix::rand_uniform(3, 4, -1.0, 1.0, &mut rng);
        let report = check_gradients(
            &mut store,
            |tape, store| {
                let vars: Vec<Var> = xs.iter().map(|m| tape.constant(m.clone())).collect();
                let out = bi.forward(tape, store, &vars);
                let stacked = tape.concat_rows(&out);
                tape.mse(stacked, &t)
            },
            5e-3,
        );
        assert!(report.passes(2e-2), "{report:?}");
    }
}

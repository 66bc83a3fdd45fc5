//! Exhaustiveness guard: every [`Op`] variant must be handled by every
//! analysis pass.
//!
//! The pass implementations (`gradient_parents`, `backward_reads`, the
//! stability depth transfer, `infer_shape`) are all non-wildcard
//! `match`es, so *compilation* already fails if a variant is added
//! without analysis support. This test closes the remaining gap: a
//! non-wildcard match here enumerates the variants themselves, so
//! adding one forces this file — and therefore a conscious review of
//! each pass's answer for it — to be updated, and at runtime each
//! variant is pushed onto a real tape and run through all four passes.

use rapid_autograd::op::{LstmStep, Op};
use rapid_autograd::{ParamStore, Tape, Var};
use rapid_check::{
    analyze_gradient_flow, analyze_liveness, backward_reads, gradient_parents, infer_shape,
    lint_stability,
};
use rapid_tensor::Matrix;

/// Records one instance of the given variant tag onto `tape` (with
/// whatever well-formed inputs it needs) and returns the new node.
/// Every input is a parameter bound from `store`, so the whole graph is
/// in the node's gradient cone.
/// The `match` on a representative `Op` value is deliberately
/// non-wildcard: a new variant breaks this function at compile time.
fn push_variant(tape: &mut Tape, store: &mut ParamStore, probe: &Op) -> Var {
    // Fresh well-formed inputs per op so every variant type-checks.
    let m33 = || Matrix::from_vec(3, 3, (0..9).map(|i| 0.1 * i as f32 + 0.1).collect());
    let row3 = || Matrix::row_vector(&[0.2, 0.4, 0.6]);
    let col3 = || Matrix::from_vec(3, 1, vec![0.3, 0.6, 0.9]);
    let filled = |r: usize, c: usize| {
        Matrix::from_vec(r, c, (0..r * c).map(|i| 0.05 * i as f32 - 0.2).collect())
    };
    let mut param = |tape: &mut Tape, value: Matrix| {
        let id = store.add("input", value);
        tape.param(store, id)
    };
    match probe {
        Op::Leaf => param(tape, m33()),
        Op::MatMul(..) => {
            let a = param(tape, m33());
            let b = param(tape, m33());
            tape.matmul(a, b)
        }
        Op::Transpose(..) => {
            let a = param(tape, m33());
            tape.transpose(a)
        }
        Op::Add(..) => {
            let a = param(tape, m33());
            let b = param(tape, m33());
            tape.add(a, b)
        }
        Op::Sub(..) => {
            let a = param(tape, m33());
            let b = param(tape, m33());
            tape.sub(a, b)
        }
        Op::Mul(..) => {
            let a = param(tape, m33());
            let b = param(tape, m33());
            tape.mul(a, b)
        }
        Op::Scale(..) => {
            let a = param(tape, m33());
            tape.scale(a, 2.0)
        }
        Op::AddScalar(..) => {
            let a = param(tape, m33());
            tape.add_scalar(a, 1.0)
        }
        Op::AddRowBroadcast(..) => {
            let a = param(tape, m33());
            let b = param(tape, row3());
            tape.add_row_broadcast(a, b)
        }
        Op::MulRowBroadcast(..) => {
            let a = param(tape, m33());
            let b = param(tape, row3());
            tape.mul_row_broadcast(a, b)
        }
        Op::MulColBroadcast(..) => {
            let a = param(tape, m33());
            let b = param(tape, col3());
            tape.mul_col_broadcast(a, b)
        }
        Op::Sigmoid(..) => {
            let a = param(tape, m33());
            tape.sigmoid(a)
        }
        Op::Tanh(..) => {
            let a = param(tape, m33());
            tape.tanh(a)
        }
        Op::Relu(..) => {
            let a = param(tape, m33());
            tape.relu(a)
        }
        Op::Softplus(..) => {
            let a = param(tape, m33());
            tape.softplus(a)
        }
        Op::SoftmaxRows(..) => {
            let a = param(tape, m33());
            tape.softmax_rows(a)
        }
        Op::NormalizeRows(..) => {
            let a = param(tape, m33());
            tape.normalize_rows(a, 1e-5)
        }
        Op::ConcatCols(..) => {
            let a = param(tape, m33());
            let b = param(tape, col3());
            tape.concat_cols(&[a, b])
        }
        Op::ConcatRows(..) => {
            let a = param(tape, m33());
            let b = param(tape, row3());
            tape.concat_rows(&[a, b])
        }
        Op::SliceCols(..) => {
            let a = param(tape, m33());
            tape.slice_cols(a, 0, 2)
        }
        Op::SliceRows(..) => {
            let a = param(tape, m33());
            tape.slice_rows(a, 1, 3)
        }
        Op::SumAll(..) => {
            let a = param(tape, m33());
            tape.sum_all(a)
        }
        Op::MeanAll(..) => {
            let a = param(tape, m33());
            tape.mean_all(a)
        }
        Op::BceWithLogits { .. } => {
            let logits = param(tape, col3());
            tape.bce_with_logits(logits, &Matrix::from_vec(3, 1, vec![1.0, 0.0, 1.0]))
        }
        Op::Mse { .. } => {
            let pred = param(tape, col3());
            tape.mse(pred, &Matrix::from_vec(3, 1, vec![0.1, 0.2, 0.3]))
        }
        Op::PairwiseLogistic { .. } => {
            let scores = param(tape, col3());
            tape.pairwise_logistic(scores, &[1.0, 0.0, 1.0])
        }
        Op::LstmCell(..) => {
            let x = param(tape, m33());
            let h = param(tape, filled(3, 2));
            let c = param(tape, filled(3, 2));
            let w = param(tape, filled(3, 8));
            let u = param(tape, filled(2, 8));
            let b = param(tape, filled(1, 8));
            tape.lstm_cell(x, h, c, w, u, b)
        }
    }
}

/// One representative value per variant, used only to drive the
/// non-wildcard `match` in [`push_variant`]. Payload `Var`s are dummies
/// (never dereferenced by `push_variant`).
fn probe_ops() -> Vec<Op> {
    let mut tape = Tape::new();
    let d = tape.constant(Matrix::ones(1, 1));
    vec![
        Op::Leaf,
        Op::MatMul(d, d),
        Op::Transpose(d),
        Op::Add(d, d),
        Op::Sub(d, d),
        Op::Mul(d, d),
        Op::Scale(d, 1.0),
        Op::AddScalar(d, 1.0),
        Op::AddRowBroadcast(d, d),
        Op::MulRowBroadcast(d, d),
        Op::MulColBroadcast(d, d),
        Op::Sigmoid(d),
        Op::Tanh(d),
        Op::Relu(d),
        Op::Softplus(d),
        Op::SoftmaxRows(d),
        Op::NormalizeRows(d, 1e-5),
        Op::ConcatCols(vec![d]),
        Op::ConcatRows(vec![d]),
        Op::SliceCols(d, 0, 1),
        Op::SliceRows(d, 0, 1),
        Op::SumAll(d),
        Op::MeanAll(d),
        Op::BceWithLogits {
            logits: d,
            targets: Matrix::ones(1, 1),
        },
        Op::Mse {
            pred: d,
            targets: Matrix::ones(1, 1),
        },
        Op::PairwiseLogistic {
            scores: d,
            labels: vec![1.0, 0.0],
        },
        Op::LstmCell(Box::new(LstmStep {
            x: d,
            h: d,
            c: d,
            w: d,
            u: d,
            b: d,
            gates: Matrix::ones(1, 4),
        })),
    ]
}

#[test]
fn every_op_variant_flows_through_all_passes() {
    for probe in probe_ops() {
        let mut tape = Tape::new();
        let mut store = ParamStore::new();
        let node = push_variant(&mut tape, &mut store, &probe);
        let i = node.index();
        let op = tape.node_op(i);
        assert_eq!(op.tag(), probe.tag(), "pushed the wrong variant");

        // Shape inference agrees with the recorded value (leaves have
        // no derived shape by definition).
        let inputs: Vec<(usize, usize)> = op
            .parents()
            .iter()
            .map(|v| tape.node_shape(v.index()))
            .collect();
        match infer_shape(op, &inputs) {
            Ok(inferred) => {
                assert_eq!(inferred, tape.node_shape(i), "{}: inferred shape", op.tag())
            }
            Err(rapid_check::ShapeError::Leaf) => {
                assert!(
                    matches!(op, Op::Leaf),
                    "{}: unexpected Leaf error",
                    op.tag()
                )
            }
            Err(e) => panic!("{}: infer_shape rejected a valid node: {e:?}", op.tag()),
        }

        // Gradient-flow: declared gradient parents are recorded parents.
        assert_eq!(
            gradient_parents(op)
                .iter()
                .map(|v| v.index())
                .collect::<Vec<_>>(),
            op.parents().iter().map(|v| v.index()).collect::<Vec<_>>(),
            "{}: gradient parents",
            op.tag()
        );

        // Liveness: backward-reads classification exists (the call is
        // the assertion — a new variant fails to compile), and the
        // whole-tape analyses accept a graph ending in this op.
        let _ = backward_reads(op);
        let flow = analyze_gradient_flow(&tape, i);
        assert_eq!(
            flow.live_nodes,
            tape.len(),
            "{}: every node feeds the root from a parameter",
            op.tag()
        );
        let mem = analyze_liveness(&tape, i);
        assert!(mem.fwd_peak_bytes > 0, "{}: zero forward peak", op.tag());
        assert!(
            mem.train_peak_bytes >= mem.fwd_peak_bytes,
            "{}: train peak below forward peak",
            op.tag()
        );

        // Stability: the linter runs over every variant without panicking
        // (well-formed inputs above produce no Error-severity findings).
        for f in lint_stability(&tape) {
            assert!(
                f.severity < rapid_check::Severity::Error,
                "{}: unexpected stability error: {f}",
                op.tag()
            );
        }
    }
}

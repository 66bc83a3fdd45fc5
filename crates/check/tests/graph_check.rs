//! Deterministic graph-validation tests: well-formed graphs pass with a
//! faithful report, and each class of deliberate corruption yields a
//! `GraphError` naming the offending node and op.

use rapid_autograd::op::Op;
use rapid_autograd::{ParamStore, Tape};
use rapid_check::{check_tape, GraphError, ShapeError, TapeCheck};
use rapid_tensor::Matrix;

#[test]
fn empty_tape_is_trivially_valid() {
    let tape = Tape::new();
    let report = tape.check().expect("empty tape");
    assert_eq!(report.nodes, 0);
    assert!(report.is_pristine());
}

#[test]
fn well_formed_training_graph_passes_with_faithful_report() {
    let mut store = ParamStore::new();
    let w = store.add("w", Matrix::ones(3, 1));
    let mut tape = Tape::new();
    let x = tape.constant(Matrix::ones(2, 3));
    let wv = tape.param(&store, w);
    let z = tape.matmul(x, wv);
    let y = tape.sigmoid(z);
    let _loss = tape.bce_with_logits(y, &Matrix::zeros(2, 1));

    let report = check_tape(&tape).expect("well-formed graph");
    assert_eq!(report.nodes, 5);
    assert_eq!(report.param_leaves, 1);
    assert_eq!(report.constant_leaves, 1);
    assert!(report.is_pristine());
}

#[test]
fn unreachable_nodes_are_reported_not_rejected() {
    let mut store = ParamStore::new();
    let w = store.add("w", Matrix::ones(1, 2));
    let mut tape = Tape::new();
    // One node that feeds nothing; the second use of `w` reuses its leaf.
    let w1 = tape.param(&store, w);
    let _orphan = tape.relu(w1);
    let w2 = tape.param(&store, w);
    let sum = tape.add(w1, w2);
    let _loss = tape.sum_all(sum);

    let report = tape.check().expect("benign conditions are not errors");
    assert_eq!(report.param_leaves, 1);
    assert_eq!(report.unreachable, vec![1]);
    assert!(!report.is_pristine());
}

#[test]
fn malformed_matmul_names_the_node_and_op() {
    let mut tape = Tape::new();
    let a = tape.constant(Matrix::ones(2, 3));
    let b = tape.constant(Matrix::ones(4, 5));
    // Inner dims 3 vs 4 disagree; bypass the eager forward to record it.
    tape.push_unchecked(Matrix::zeros(2, 5), Op::MatMul(a, b));

    let errors = tape.check().expect_err("must reject");
    assert_eq!(errors.len(), 1);
    match &errors[0] {
        GraphError::Shape { node, op, error } => {
            assert_eq!(*node, 2);
            assert_eq!(*op, "matmul");
            assert_eq!(
                *error,
                ShapeError::MatMulInner {
                    left: (2, 3),
                    right: (4, 5)
                }
            );
        }
        other => panic!("expected Shape error, got {other:?}"),
    }
    let rendered = errors[0].to_string();
    assert!(rendered.contains("node 2"), "{rendered}");
    assert!(rendered.contains("matmul"), "{rendered}");
}

#[test]
fn value_shape_drift_is_detected() {
    let mut tape = Tape::new();
    let a = tape.constant(Matrix::ones(2, 3));
    // transpose of 2x3 must be 3x2; record a drifted 2x3 value.
    tape.push_unchecked(Matrix::zeros(2, 3), Op::Transpose(a));

    let errors = check_tape(&tape).expect_err("must reject");
    assert!(
        matches!(
            errors[0],
            GraphError::ValueShapeDrift {
                node: 1,
                op: "transpose",
                inferred: (3, 2),
                actual: (2, 3),
            }
        ),
        "{:?}",
        errors[0]
    );
}

#[test]
fn dangling_parent_is_the_stale_var_signature() {
    let mut tape = Tape::new();
    let _a = tape.constant(Matrix::ones(1, 1));
    // A handle to a node that does not exist yet — what a Var recorded
    // before Tape::clear() looks like to a refilled tape.
    let stale = tape.var_at(7);
    tape.push_unchecked(Matrix::zeros(1, 1), Op::Relu(stale));

    let errors = tape.check().expect_err("must reject");
    assert_eq!(
        errors[0],
        GraphError::DanglingParent {
            node: 1,
            op: "relu",
            parent: 7,
            len: 2,
        }
    );
    assert!(errors[0].to_string().contains("stale Var"));
}

#[test]
fn one_pass_collects_every_error() {
    let mut tape = Tape::new();
    let a = tape.constant(Matrix::ones(2, 2));
    let b = tape.constant(Matrix::ones(3, 3));
    tape.push_unchecked(Matrix::zeros(2, 2), Op::Add(a, b)); // shape
    tape.push_unchecked(Matrix::zeros(9, 9), Op::Relu(a)); // drift
    tape.push_unchecked(Matrix::zeros(1, 1), Op::SumAll(tape.var_at(99))); // dangling

    let errors = check_tape(&tape).expect_err("must reject");
    assert_eq!(errors.len(), 3);
    assert!(matches!(errors[0], GraphError::Shape { node: 2, .. }));
    assert!(matches!(
        errors[1],
        GraphError::ValueShapeDrift { node: 3, .. }
    ));
    assert!(matches!(
        errors[2],
        GraphError::DanglingParent { node: 4, .. }
    ));
}

#[test]
fn report_renders_a_summary() {
    let mut tape = Tape::new();
    let a = tape.constant(Matrix::ones(1, 2));
    let _s = tape.sum_all(a);
    let report = tape.check().expect("valid");
    let text = report.to_string();
    assert!(text.contains("2 nodes"), "{text}");
}

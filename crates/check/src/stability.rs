//! Numerical-stability lints over a recorded tape.
//!
//! Pattern rules over `Op` + constants, each reported with node/op
//! provenance like [`crate::GraphError`]. The rules are tuned to this
//! tape's op vocabulary — e.g. there is no raw `Exp` or `Div`, so the
//! classic "softmax without max-subtraction" hazard shows up here as an
//! unguarded [`Op::NormalizeRows`] epsilon or a deep unbounded affine
//! chain feeding a saturating activation.
//!
//! Rules:
//!
//! * `unguarded-normalize-eps` — `NormalizeRows` with `eps <= 0`
//!   (division by zero on a constant row, Error) or `eps < 1e-8`
//!   (underflows `f32` around unit-scale activations, Warn).
//! * `degenerate-pairwise-loss` — `PairwiseLogistic` whose labels hold
//!   no discordant pair: the loss is identically zero and propagates no
//!   gradient (Error).
//! * `bce-target-range` — `BceWithLogits` targets outside `[0, 1]`
//!   make the loss unbounded below (Error).
//! * `extreme-scalar` — `Scale`/`AddScalar` constant that is non-finite
//!   (Error) or has magnitude > 1e4, prone to overflow once squared
//!   (Warn).
//! * `saturating-input-depth` — a saturating activation (`Sigmoid`,
//!   `Tanh`, `Softplus`, `SoftmaxRows`) fed by a chain of ≥ 4 unbounded
//!   multiplicative ops with no intervening squashing; its input scale
//!   is unbounded, so the activation runs in its flat tails and the
//!   gradient vanishes (Info). Depth is tracked by an exhaustive
//!   per-op transfer function. A fused `LstmCell` is tracked as the
//!   matmul/add/sigmoid/tanh/mul nodes it replaces and raises one
//!   finding per cell when any of its five activations would.

use rapid_autograd::op::{LstmStep, Op};
use rapid_autograd::{Tape, Var};

/// How bad a stability finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Worth knowing when tuning; not wrong by itself.
    Info,
    /// Likely to degrade training; review.
    Warn,
    /// Mathematically degenerate as recorded.
    Error,
}

impl std::fmt::Display for Severity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Severity::Info => write!(f, "info"),
            Severity::Warn => write!(f, "warn"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// One stability finding with graph provenance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StabilityFinding {
    /// Tape index of the offending node.
    pub node: usize,
    /// `Op::tag()` of that node.
    pub op: &'static str,
    /// Stable rule name.
    pub rule: &'static str,
    pub severity: Severity,
    pub message: String,
}

impl std::fmt::Display for StabilityFinding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{}] node {} ({}): {} — {}",
            self.severity, self.node, self.op, self.rule, self.message
        )
    }
}

/// Multiplicative-depth transfer: how many unbounded scale-growing ops
/// a node's value has passed through since the last squashing op.
///
/// Bounded-output ops reset to 0; affine/structural ops pass the max of
/// their parents through; multiplicative ops add 1. Exhaustive so new
/// ops must declare their growth behaviour.
fn depth_transfer(tape: &Tape, op: &Op, depth: &[u32]) -> u32 {
    let max_parent = |vars: &[Var]| vars.iter().map(|v| depth[v.index()]).max().unwrap_or(0);
    match op {
        // Sources: leaves start at depth 0.
        Op::Leaf => 0,
        // Multiplicative: products compound operand scales.
        Op::MatMul(a, b)
        | Op::Mul(a, b)
        | Op::MulRowBroadcast(a, b)
        | Op::MulColBroadcast(a, b) => max_parent(&[*a, *b]) + 1,
        // The h′ half of a fused LSTM step: o ⊙ tanh(c′).
        Op::SliceCols(a, _, end)
            if matches!(tape.node_op(a.index()), Op::LstmCell(..))
                && 2 * end <= tape.node_shape(a.index()).1 =>
        {
            LSTM_H_DEPTH
        }
        // Affine / structural: scale passes through unchanged.
        Op::Transpose(a)
        | Op::Scale(a, _)
        | Op::AddScalar(a, _)
        | Op::SliceCols(a, _, _)
        | Op::SliceRows(a, _, _)
        | Op::SumAll(a)
        | Op::MeanAll(a) => depth[a.index()],
        Op::Add(a, b) | Op::Sub(a, b) | Op::AddRowBroadcast(a, b) => max_parent(&[*a, *b]),
        Op::ConcatCols(vs) | Op::ConcatRows(vs) => max_parent(vs),
        // Relu is unbounded above: passes positive scale through.
        Op::Relu(a) => depth[a.index()],
        // Bounded or normalizing outputs reset the chain.
        Op::Sigmoid(_) | Op::Tanh(_) | Op::SoftmaxRows(_) | Op::NormalizeRows(..) => 0,
        // Softplus is ~identity for large x but we treat its output as
        // fresh: the hazard is at its *input*, flagged separately.
        Op::Softplus(_) => 0,
        // Losses are terminal scalars.
        Op::BceWithLogits { .. } | Op::Mse { .. } | Op::PairwiseLogistic { .. } => 0,
        // The node carries its c′ half's depth; the h′ half is sliced
        // out at `LSTM_H_DEPTH` above.
        Op::LstmCell(step) => lstm_depths(step, depth).1,
    }
}

/// Depth of h′ = o ⊙ tanh(c′): one product of two bounded values.
const LSTM_H_DEPTH: u32 = 1;

/// `(gate input, c′)` depths of a fused LSTM step, as the unfused ops
/// track them: `(x·w + h·u) + b` feeds the four gate activations, and
/// c′ = f ⊙ c + i ⊙ g feeds tanh.
fn lstm_depths(s: &LstmStep, depth: &[u32]) -> (u32, u32) {
    let d = |v: Var| depth[v.index()];
    let gates = (d(s.x).max(d(s.w)) + 1)
        .max(d(s.h).max(d(s.u)) + 1)
        .max(d(s.b));
    (gates, d(s.c) + 1)
}

/// Depth at which a saturating activation's input is considered at risk.
const SATURATION_DEPTH: u32 = 4;

/// Runs every stability rule over the tape. Findings come out in node
/// order; an empty vec means the graph is clean.
pub fn lint_stability(tape: &Tape) -> Vec<StabilityFinding> {
    let n = tape.len();
    let mut findings = Vec::new();
    let mut depth = vec![0u32; n];
    for i in 0..n {
        let op = tape.node_op(i);
        depth[i] = depth_transfer(tape, op, &depth);
        let mut push = |rule: &'static str, severity: Severity, message: String| {
            findings.push(StabilityFinding {
                node: i,
                op: op.tag(),
                rule,
                severity,
                message,
            });
        };
        match op {
            Op::NormalizeRows(_, eps) => {
                if *eps <= 0.0 || !eps.is_finite() {
                    push(
                        "unguarded-normalize-eps",
                        Severity::Error,
                        format!("eps = {eps} cannot guard a zero-variance row"),
                    );
                } else if *eps < 1e-8 {
                    push(
                        "unguarded-normalize-eps",
                        Severity::Warn,
                        format!("eps = {eps} underflows f32 variance around unit scale"),
                    );
                }
            }
            Op::PairwiseLogistic { labels, .. } => {
                let pos = labels.iter().any(|&l| l > 0.5);
                let neg = labels.iter().any(|&l| l <= 0.5);
                if !(pos && neg) {
                    push(
                        "degenerate-pairwise-loss",
                        Severity::Error,
                        format!(
                            "labels have no (positive, negative) pair ({} labels); \
                             loss is identically 0 and propagates no gradient",
                            labels.len()
                        ),
                    );
                }
            }
            Op::BceWithLogits { targets, .. } => {
                if let Some(&t) = targets
                    .as_slice()
                    .iter()
                    .find(|t| !(0.0..=1.0).contains(*t) || !t.is_finite())
                {
                    push(
                        "bce-target-range",
                        Severity::Error,
                        format!("target {t} outside [0, 1] makes BCE unbounded below"),
                    );
                }
            }
            Op::Scale(_, c) | Op::AddScalar(_, c) => {
                if !c.is_finite() {
                    push(
                        "extreme-scalar",
                        Severity::Error,
                        format!("non-finite constant {c}"),
                    );
                } else if c.abs() > 1e4 {
                    push(
                        "extreme-scalar",
                        Severity::Warn,
                        format!("constant {c} overflows f32 once squared in a product chain"),
                    );
                }
            }
            Op::Sigmoid(a) | Op::Tanh(a) | Op::Softplus(a) | Op::SoftmaxRows(a) => {
                let d = depth[a.index()];
                if d >= SATURATION_DEPTH {
                    push(
                        "saturating-input-depth",
                        Severity::Info,
                        format!(
                            "input has passed {d} unbounded multiplicative ops since the \
                             last squashing; saturation risk (threshold {SATURATION_DEPTH})"
                        ),
                    );
                }
            }
            Op::LstmCell(step) => {
                let (gates, c_new) = lstm_depths(step, &depth);
                if gates.max(c_new) >= SATURATION_DEPTH {
                    push(
                        "saturating-input-depth",
                        Severity::Info,
                        format!(
                            "gate input at depth {gates}, cell state at depth {c_new} \
                             feed the cell's sigmoid/tanh; saturation risk (threshold \
                             {SATURATION_DEPTH})"
                        ),
                    );
                }
            }
            _ => {}
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use rapid_tensor::Matrix;

    #[test]
    fn clean_graph_has_no_findings() {
        let mut tape = Tape::new();
        let x = tape.constant(Matrix::ones(2, 3));
        let h = tape.normalize_rows(x, 1e-5);
        let s = tape.sigmoid(h);
        let _l = tape.mean_all(s);
        assert!(lint_stability(&tape).is_empty());
    }

    #[test]
    fn zero_eps_normalize_is_an_error_and_tiny_eps_a_warning() {
        let mut tape = Tape::new();
        // Rows need nonzero variance: with eps = 0 a constant row would
        // produce NaN and trip the tape's finite-value debug assert
        // before the lint ever sees the graph — which is exactly the
        // runtime failure this rule predicts statically.
        let x = tape.constant(Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[0.0, 1.0, 4.0]]));
        let _bad = tape.normalize_rows(x, 0.0);
        let _tiny = tape.normalize_rows(x, 1e-12);
        let f = lint_stability(&tape);
        assert_eq!(f.len(), 2);
        assert_eq!(f[0].rule, "unguarded-normalize-eps");
        assert_eq!(f[0].severity, Severity::Error);
        assert_eq!(f[1].severity, Severity::Warn);
        assert_eq!(f[0].node, 1);
    }

    #[test]
    fn single_class_pairwise_labels_are_degenerate() {
        let mut tape = Tape::new();
        let s = tape.constant(Matrix::row_vector(&[0.3, 0.9, -0.2]));
        let _l = tape.pairwise_logistic(s, &[1.0, 1.0, 1.0]);
        let f = lint_stability(&tape);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "degenerate-pairwise-loss");
        assert_eq!(f[0].severity, Severity::Error);
    }

    #[test]
    fn bce_targets_outside_unit_interval_are_flagged() {
        let mut tape = Tape::new();
        let logits = tape.constant(Matrix::row_vector(&[0.1, 0.2]));
        let _l = tape.bce_with_logits(logits, &Matrix::row_vector(&[1.0, 2.0]));
        let f = lint_stability(&tape);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "bce-target-range");
    }

    #[test]
    fn huge_scale_constants_warn() {
        let mut tape = Tape::new();
        let x = tape.constant(Matrix::ones(1, 2));
        let _y = tape.scale(x, 1e6);
        let f = lint_stability(&tape);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "extreme-scalar");
        assert_eq!(f[0].severity, Severity::Warn);
    }

    #[test]
    fn deep_matmul_chain_into_sigmoid_is_flagged_and_reset_by_squash() {
        let mut tape = Tape::new();
        let mut h = tape.constant(Matrix::ones(4, 4));
        let w = tape.constant(Matrix::ones(4, 4));
        for _ in 0..4 {
            h = tape.matmul(h, w);
        }
        let sat = tape.sigmoid(h); // depth 4 -> flagged
        let h2 = tape.matmul(sat, w); // depth resets to 0 after sigmoid
        let _ok = tape.tanh(h2); // depth 1 -> clean
        let f = lint_stability(&tape);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "saturating-input-depth");
        assert_eq!(f[0].node, sat.index());
        assert_eq!(f[0].severity, Severity::Info);
    }
}

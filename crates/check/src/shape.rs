//! Symbolic shape inference over the autograd [`Op`] vocabulary.
//!
//! [`infer_shape`] computes the output shape an op *must* produce from
//! its input shapes, without touching any values. It is the single
//! source of truth the graph validator ([`crate::graph`]) replays a
//! recorded [`rapid_autograd::Tape`] against: a node whose recorded
//! value shape disagrees with the inferred shape means the op's forward
//! implementation and its declared semantics have drifted apart.

use rapid_autograd::op::Op;

/// A matrix shape as `(rows, cols)`.
pub type Shape = (usize, usize);

/// Why a shape could not be inferred for an op.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShapeError {
    /// The number of input shapes does not match the op's arity.
    Arity {
        /// Op name.
        op: &'static str,
        /// Inputs the op needs.
        expected: usize,
        /// Inputs supplied.
        got: usize,
    },
    /// Leaves have no inferred shape: their shape is given, not derived.
    Leaf,
    /// `matmul` inner dimensions disagree (`left.cols != right.rows`).
    MatMulInner {
        /// Shape of the left operand.
        left: Shape,
        /// Shape of the right operand.
        right: Shape,
    },
    /// An elementwise op received operands of different shapes.
    Mismatch {
        /// Op name.
        op: &'static str,
        /// Shape of the left operand.
        left: Shape,
        /// Shape of the right operand.
        right: Shape,
    },
    /// A row-broadcast op needs a `(1, m)` row matching the main
    /// operand's column count.
    RowBroadcast {
        /// Op name.
        op: &'static str,
        /// Shape of the main operand.
        main: Shape,
        /// Shape of the would-be row vector.
        row: Shape,
    },
    /// A column-broadcast op needs an `(n, 1)` column matching the main
    /// operand's row count.
    ColBroadcast {
        /// Op name.
        op: &'static str,
        /// Shape of the main operand.
        main: Shape,
        /// Shape of the would-be column vector.
        col: Shape,
    },
    /// A concatenation received no parts.
    EmptyConcat {
        /// Op name.
        op: &'static str,
    },
    /// Part `index` of a concatenation disagrees with part 0 on the
    /// dimension that must be aligned (rows for `concat_cols`, cols for
    /// `concat_rows`).
    ConcatAlign {
        /// Op name.
        op: &'static str,
        /// Misaligned part.
        index: usize,
        /// Aligned extent established by part 0.
        expected: usize,
        /// Extent of the misaligned part.
        got: usize,
    },
    /// A slice range is empty or exceeds the sliced extent.
    SliceBounds {
        /// Op name.
        op: &'static str,
        /// Range start.
        start: usize,
        /// Range end (exclusive).
        end: usize,
        /// Extent being sliced (cols for `slice_cols`, rows for
        /// `slice_rows`).
        extent: usize,
    },
    /// A loss op's constant targets do not match the prediction shape.
    TargetMismatch {
        /// Op name.
        op: &'static str,
        /// Shape of the prediction input.
        pred: Shape,
        /// Shape of the constant targets.
        target: Shape,
    },
    /// `pairwise_logistic` labels must pair 1:1 with scores.
    LabelCount {
        /// Number of score entries.
        scores: usize,
        /// Number of labels.
        labels: usize,
    },
}

impl std::fmt::Display for ShapeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShapeError::Arity { op, expected, got } => {
                write!(f, "{op}: expected {expected} input(s), got {got}")
            }
            ShapeError::Leaf => write!(f, "leaf shapes are given, not inferred"),
            ShapeError::MatMulInner { left, right } => write!(
                f,
                "matmul: inner dimensions disagree ({}x{} * {}x{})",
                left.0, left.1, right.0, right.1
            ),
            ShapeError::Mismatch { op, left, right } => write!(
                f,
                "{op}: operand shapes differ ({}x{} vs {}x{})",
                left.0, left.1, right.0, right.1
            ),
            ShapeError::RowBroadcast { op, main, row } => write!(
                f,
                "{op}: needs a 1x{} row, got {}x{} (main operand {}x{})",
                main.1, row.0, row.1, main.0, main.1
            ),
            ShapeError::ColBroadcast { op, main, col } => write!(
                f,
                "{op}: needs a {}x1 column, got {}x{} (main operand {}x{})",
                main.0, col.0, col.1, main.0, main.1
            ),
            ShapeError::EmptyConcat { op } => write!(f, "{op}: no parts"),
            ShapeError::ConcatAlign {
                op,
                index,
                expected,
                got,
            } => write!(
                f,
                "{op}: part {index} has extent {got}, expected {expected}"
            ),
            ShapeError::SliceBounds {
                op,
                start,
                end,
                extent,
            } => write!(
                f,
                "{op}: range {start}..{end} out of bounds for extent {extent}"
            ),
            ShapeError::TargetMismatch { op, pred, target } => write!(
                f,
                "{op}: targets are {}x{} but prediction is {}x{}",
                target.0, target.1, pred.0, pred.1
            ),
            ShapeError::LabelCount { scores, labels } => {
                write!(f, "pairwise_logistic: {labels} labels for {scores} scores")
            }
        }
    }
}

impl std::error::Error for ShapeError {}

fn arity(op: &'static str, inputs: &[Shape], expected: usize) -> Result<(), ShapeError> {
    if inputs.len() == expected {
        Ok(())
    } else {
        Err(ShapeError::Arity {
            op,
            expected,
            got: inputs.len(),
        })
    }
}

fn unary(op: &'static str, inputs: &[Shape]) -> Result<Shape, ShapeError> {
    arity(op, inputs, 1)?;
    Ok(inputs[0])
}

fn elementwise(op: &'static str, inputs: &[Shape]) -> Result<Shape, ShapeError> {
    arity(op, inputs, 2)?;
    if inputs[0] == inputs[1] {
        Ok(inputs[0])
    } else {
        Err(ShapeError::Mismatch {
            op,
            left: inputs[0],
            right: inputs[1],
        })
    }
}

fn concat(
    op: &'static str,
    inputs: &[Shape],
    aligned: impl Fn(Shape) -> usize,
    summed: impl Fn(Shape) -> usize,
    rebuild: impl Fn(usize, usize) -> Shape,
) -> Result<Shape, ShapeError> {
    let Some(&first) = inputs.first() else {
        return Err(ShapeError::EmptyConcat { op });
    };
    let align = aligned(first);
    let mut total = summed(first);
    for (index, &s) in inputs.iter().enumerate().skip(1) {
        if aligned(s) != align {
            return Err(ShapeError::ConcatAlign {
                op,
                index,
                expected: align,
                got: aligned(s),
            });
        }
        total += summed(s);
    }
    Ok(rebuild(align, total))
}

fn slice(
    op: &'static str,
    input: Shape,
    start: usize,
    end: usize,
    extent: usize,
    rebuild: impl Fn(Shape, usize) -> Shape,
) -> Result<Shape, ShapeError> {
    if start < end && end <= extent {
        Ok(rebuild(input, end - start))
    } else {
        Err(ShapeError::SliceBounds {
            op,
            start,
            end,
            extent,
        })
    }
}

/// Infers the output shape of `op` from its input shapes.
///
/// `inputs` must list the shapes of the op's parents in
/// [`Op::parents`] order. Every `Op` variant is covered; [`Op::Leaf`]
/// returns [`ShapeError::Leaf`] because a leaf's shape is an input to
/// inference, not a product of it.
pub fn infer_shape(op: &Op, inputs: &[Shape]) -> Result<Shape, ShapeError> {
    match op {
        Op::Leaf => Err(ShapeError::Leaf),
        Op::MatMul(..) => {
            arity("matmul", inputs, 2)?;
            let (a, b) = (inputs[0], inputs[1]);
            if a.1 == b.0 {
                Ok((a.0, b.1))
            } else {
                Err(ShapeError::MatMulInner { left: a, right: b })
            }
        }
        Op::Transpose(..) => {
            arity("transpose", inputs, 1)?;
            Ok((inputs[0].1, inputs[0].0))
        }
        Op::Add(..) => elementwise("add", inputs),
        Op::Sub(..) => elementwise("sub", inputs),
        Op::Mul(..) => elementwise("mul", inputs),
        Op::Scale(..) => unary("scale", inputs),
        Op::AddScalar(..) => unary("add_scalar", inputs),
        Op::AddRowBroadcast(..) | Op::MulRowBroadcast(..) => {
            let op = op.tag();
            arity(op, inputs, 2)?;
            let (main, row) = (inputs[0], inputs[1]);
            if row == (1, main.1) {
                Ok(main)
            } else {
                Err(ShapeError::RowBroadcast { op, main, row })
            }
        }
        Op::MulColBroadcast(..) => {
            arity("mul_col_broadcast", inputs, 2)?;
            let (main, col) = (inputs[0], inputs[1]);
            if col == (main.0, 1) {
                Ok(main)
            } else {
                Err(ShapeError::ColBroadcast {
                    op: "mul_col_broadcast",
                    main,
                    col,
                })
            }
        }
        Op::Sigmoid(..) => unary("sigmoid", inputs),
        Op::Tanh(..) => unary("tanh", inputs),
        Op::Relu(..) => unary("relu", inputs),
        Op::Softplus(..) => unary("softplus", inputs),
        Op::SoftmaxRows(..) => unary("softmax_rows", inputs),
        Op::NormalizeRows(..) => unary("normalize_rows", inputs),
        Op::ConcatCols(parts) => {
            arity("concat_cols", inputs, parts.len())?;
            concat("concat_cols", inputs, |s| s.0, |s| s.1, |r, c| (r, c))
        }
        Op::ConcatRows(parts) => {
            arity("concat_rows", inputs, parts.len())?;
            concat("concat_rows", inputs, |s| s.1, |s| s.0, |c, r| (r, c))
        }
        Op::SliceCols(_, start, end) => {
            arity("slice_cols", inputs, 1)?;
            let a = inputs[0];
            slice("slice_cols", a, *start, *end, a.1, |s, w| (s.0, w))
        }
        Op::SliceRows(_, start, end) => {
            arity("slice_rows", inputs, 1)?;
            let a = inputs[0];
            slice("slice_rows", a, *start, *end, a.0, |s, h| (h, s.1))
        }
        Op::SumAll(..) => {
            arity("sum_all", inputs, 1)?;
            Ok((1, 1))
        }
        Op::MeanAll(..) => {
            arity("mean_all", inputs, 1)?;
            Ok((1, 1))
        }
        Op::BceWithLogits { targets, .. } => {
            arity("bce_with_logits", inputs, 1)?;
            if inputs[0] == targets.shape() {
                Ok((1, 1))
            } else {
                Err(ShapeError::TargetMismatch {
                    op: "bce_with_logits",
                    pred: inputs[0],
                    target: targets.shape(),
                })
            }
        }
        Op::Mse { targets, .. } => {
            arity("mse", inputs, 1)?;
            if inputs[0] == targets.shape() {
                Ok((1, 1))
            } else {
                Err(ShapeError::TargetMismatch {
                    op: "mse",
                    pred: inputs[0],
                    target: targets.shape(),
                })
            }
        }
        Op::PairwiseLogistic { labels, .. } => {
            arity("pairwise_logistic", inputs, 1)?;
            let n = inputs[0].0 * inputs[0].1;
            if n == labels.len() {
                Ok((1, 1))
            } else {
                Err(ShapeError::LabelCount {
                    scores: n,
                    labels: labels.len(),
                })
            }
        }
        Op::LstmCell(..) => {
            const OP: &str = "lstm_cell";
            arity(OP, inputs, 6)?;
            let (x, h, c, w, u, b) = (
                inputs[0], inputs[1], inputs[2], inputs[3], inputs[4], inputs[5],
            );
            if x.1 != w.0 {
                return Err(ShapeError::MatMulInner { left: x, right: w });
            }
            if h.1 != u.0 {
                return Err(ShapeError::MatMulInner { left: h, right: u });
            }
            let gates = (x.0, w.1);
            for (left, right) in [(h, c), (gates, (h.0, u.1)), (gates, (h.0, 4 * h.1))] {
                if left != right {
                    return Err(ShapeError::Mismatch {
                        op: OP,
                        left,
                        right,
                    });
                }
            }
            if b != (1, gates.1) {
                return Err(ShapeError::RowBroadcast {
                    op: OP,
                    main: gates,
                    row: b,
                });
            }
            Ok((h.0, 2 * h.1))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rapid_autograd::op::LstmStep;
    use rapid_tensor::Matrix;

    // `infer_shape` only reads the payload of data-carrying variants, so
    // parent handles can be placeholders from an empty tape.
    fn v(idx: usize) -> rapid_autograd::Var {
        rapid_autograd::Tape::new().var_at(idx)
    }

    #[test]
    fn matmul_agreement_and_mismatch() {
        let op = Op::MatMul(v(0), v(1));
        assert_eq!(infer_shape(&op, &[(2, 3), (3, 5)]), Ok((2, 5)));
        assert_eq!(
            infer_shape(&op, &[(2, 3), (4, 5)]),
            Err(ShapeError::MatMulInner {
                left: (2, 3),
                right: (4, 5)
            })
        );
    }

    #[test]
    fn broadcasts_enforce_vector_orientation() {
        let row = Op::AddRowBroadcast(v(0), v(1));
        assert_eq!(infer_shape(&row, &[(4, 3), (1, 3)]), Ok((4, 3)));
        assert!(matches!(
            infer_shape(&row, &[(4, 3), (3, 1)]),
            Err(ShapeError::RowBroadcast { .. })
        ));
        let col = Op::MulColBroadcast(v(0), v(1));
        assert_eq!(infer_shape(&col, &[(4, 3), (4, 1)]), Ok((4, 3)));
        assert!(matches!(
            infer_shape(&col, &[(4, 3), (1, 4)]),
            Err(ShapeError::ColBroadcast { .. })
        ));
    }

    #[test]
    fn concat_alignment() {
        let op = Op::ConcatCols(vec![v(0), v(1), v(2)]);
        assert_eq!(infer_shape(&op, &[(2, 1), (2, 3), (2, 2)]), Ok((2, 6)));
        assert_eq!(
            infer_shape(&op, &[(2, 1), (3, 3), (2, 2)]),
            Err(ShapeError::ConcatAlign {
                op: "concat_cols",
                index: 1,
                expected: 2,
                got: 3
            })
        );
        let op = Op::ConcatRows(vec![v(0), v(1)]);
        assert_eq!(infer_shape(&op, &[(1, 4), (2, 4)]), Ok((3, 4)));
        assert!(matches!(
            infer_shape(&op, &[(1, 4), (2, 5)]),
            Err(ShapeError::ConcatAlign { index: 1, .. })
        ));
    }

    #[test]
    fn slice_bounds() {
        let op = Op::SliceCols(v(0), 1, 3);
        assert_eq!(infer_shape(&op, &[(2, 4)]), Ok((2, 2)));
        assert!(matches!(
            infer_shape(&op, &[(2, 2)]),
            Err(ShapeError::SliceBounds { end: 3, .. })
        ));
        let op = Op::SliceRows(v(0), 2, 2);
        assert!(matches!(
            infer_shape(&op, &[(4, 1)]),
            Err(ShapeError::SliceBounds { .. })
        ));
    }

    #[test]
    fn losses_are_scalar_and_validate_targets() {
        let op = Op::BceWithLogits {
            logits: v(0),
            targets: Matrix::zeros(5, 1),
        };
        assert_eq!(infer_shape(&op, &[(5, 1)]), Ok((1, 1)));
        assert!(matches!(
            infer_shape(&op, &[(4, 1)]),
            Err(ShapeError::TargetMismatch { .. })
        ));
        let op = Op::PairwiseLogistic {
            scores: v(0),
            labels: vec![0.0; 5],
        };
        assert_eq!(infer_shape(&op, &[(5, 1)]), Ok((1, 1)));
        assert_eq!(
            infer_shape(&op, &[(4, 1)]),
            Err(ShapeError::LabelCount {
                scores: 4,
                labels: 5
            })
        );
    }

    #[test]
    fn lstm_cell_checks_all_six_operands() {
        let op = Op::LstmCell(Box::new(LstmStep {
            x: v(0),
            h: v(1),
            c: v(2),
            w: v(3),
            u: v(4),
            b: v(5),
            gates: Matrix::zeros(1, 1),
        }));
        let ok = [(4, 5), (4, 3), (4, 3), (5, 12), (3, 12), (1, 12)];
        assert_eq!(infer_shape(&op, &ok), Ok((4, 6)));
        let mut bad_w = ok;
        bad_w[3] = (6, 12);
        assert!(matches!(
            infer_shape(&op, &bad_w),
            Err(ShapeError::MatMulInner { .. })
        ));
        let mut bad_c = ok;
        bad_c[2] = (4, 2);
        assert!(matches!(
            infer_shape(&op, &bad_c),
            Err(ShapeError::Mismatch {
                op: "lstm_cell",
                ..
            })
        ));
        let mut bad_gates = ok;
        (bad_gates[3], bad_gates[4], bad_gates[5]) = ((5, 8), (3, 8), (1, 8));
        assert!(matches!(
            infer_shape(&op, &bad_gates),
            Err(ShapeError::Mismatch {
                op: "lstm_cell",
                ..
            })
        ));
        let mut bad_b = ok;
        bad_b[5] = (12, 1);
        assert!(matches!(
            infer_shape(&op, &bad_b),
            Err(ShapeError::RowBroadcast { .. })
        ));
    }

    #[test]
    fn arity_is_enforced() {
        assert!(matches!(
            infer_shape(&Op::MatMul(v(0), v(1)), &[(2, 2)]),
            Err(ShapeError::Arity {
                op: "matmul",
                expected: 2,
                got: 1
            })
        ));
        assert_eq!(infer_shape(&Op::Leaf, &[]), Err(ShapeError::Leaf));
    }
}

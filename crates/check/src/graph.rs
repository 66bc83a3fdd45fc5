//! Whole-graph validation of a recorded [`Tape`].
//!
//! [`check_tape`] replays the recorded graph *symbolically* — shapes
//! only, no values — and cross-checks every node against
//! [`crate::shape::infer_shape`]. It catches the failure classes that
//! tape reuse (PR 1) made possible:
//!
//! * **Structural corruption** — a node whose parent index points at or
//!   past itself, which can only happen when a stale [`Var`](rapid_autograd::Var) from a
//!   previous tape epoch leaks into a new graph.
//! * **Shape violations** — op inputs that break the op's contract
//!   (matmul inner dims, broadcast orientation, concat alignment,
//!   slice bounds, loss target shapes).
//! * **Op-implementation drift** — a node whose recorded value shape
//!   disagrees with the shape inferred from its op and parents, i.e.
//!   the forward implementation no longer matches the op's declared
//!   semantics.
//!
//! Nodes that cannot reach the graph's output are *reported*, not
//! rejected: recording work nobody consumes is wasteful but legitimate.

use rapid_autograd::Tape;

use crate::shape::{infer_shape, Shape, ShapeError};

/// A hard validation failure: the graph cannot have been produced by a
/// correct sequence of tape ops.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// A node references a parent at or past its own position — the
    /// signature of a stale `Var` from an earlier tape epoch (nodes are
    /// appended in topological order, so a well-formed parent index is
    /// always strictly smaller).
    DanglingParent {
        /// Offending node.
        node: usize,
        /// Its op name.
        op: &'static str,
        /// The out-of-order parent index.
        parent: usize,
        /// Number of nodes on the tape.
        len: usize,
    },
    /// The node's parent shapes violate its op's contract.
    Shape {
        /// Offending node.
        node: usize,
        /// Its op name.
        op: &'static str,
        /// What exactly is wrong.
        error: ShapeError,
    },
    /// The node's recorded value shape disagrees with the shape inferred
    /// from its op and parents — the op implementation has drifted from
    /// its declared semantics.
    ValueShapeDrift {
        /// Offending node.
        node: usize,
        /// Its op name.
        op: &'static str,
        /// Shape the op must produce.
        inferred: Shape,
        /// Shape the node actually holds.
        actual: Shape,
    },
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::DanglingParent {
                node,
                op,
                parent,
                len,
            } => write!(
                f,
                "node {node} ({op}): parent index {parent} is not strictly \
                 before the node (tape has {len} nodes) — likely a stale Var \
                 from a previous tape epoch"
            ),
            GraphError::Shape { node, op, error } => {
                write!(f, "node {node} ({op}): {error}")
            }
            GraphError::ValueShapeDrift {
                node,
                op,
                inferred,
                actual,
            } => write!(
                f,
                "node {node} ({op}): recorded value is {}x{} but the op must \
                 produce {}x{} — op implementation drift",
                actual.0, actual.1, inferred.0, inferred.1
            ),
        }
    }
}

impl std::error::Error for GraphError {}

/// Summary of a graph that passed validation, including the benign
/// condition worth surfacing.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GraphReport {
    /// Total nodes on the tape.
    pub nodes: usize,
    /// Leaves bound to trainable parameters.
    pub param_leaves: usize,
    /// Constant (input) leaves.
    pub constant_leaves: usize,
    /// Nodes that are not ancestors of the final node: recorded work
    /// that cannot influence the graph's output. Benign (e.g. per-step
    /// RNN states recorded but not all consumed), but a growing list is
    /// a smell worth inspecting.
    pub unreachable: Vec<usize>,
}

impl GraphReport {
    /// `true` when the graph has no benign findings either: every node
    /// feeds the output.
    pub fn is_pristine(&self) -> bool {
        self.unreachable.is_empty()
    }
}

impl std::fmt::Display for GraphReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} nodes ({} param leaves, {} constants); {} unreachable",
            self.nodes,
            self.param_leaves,
            self.constant_leaves,
            self.unreachable.len()
        )
    }
}

/// Validates every node of `tape` symbolically; see the module docs for
/// what is rejected versus reported. The final node is treated as the
/// graph's output for reachability purposes.
///
/// An empty tape is trivially valid.
pub fn check_tape(tape: &Tape) -> Result<GraphReport, Vec<GraphError>> {
    let n = tape.len();
    let mut errors = Vec::new();
    let mut report = GraphReport {
        nodes: n,
        ..GraphReport::default()
    };

    for i in 0..n {
        let op = tape.node_op(i);
        let name = op.tag();
        let parents = op.parents();

        if tape.node_param(i).is_some() {
            report.param_leaves += 1;
        } else if parents.is_empty() {
            report.constant_leaves += 1;
        }

        let mut structurally_ok = true;
        for p in &parents {
            if p.index() >= i {
                errors.push(GraphError::DanglingParent {
                    node: i,
                    op: name,
                    parent: p.index(),
                    len: n,
                });
                structurally_ok = false;
            }
        }
        if !structurally_ok || parents.is_empty() {
            continue;
        }

        let shapes: Vec<Shape> = parents.iter().map(|p| tape.node_shape(p.index())).collect();
        match infer_shape(op, &shapes) {
            Err(error) => errors.push(GraphError::Shape {
                node: i,
                op: name,
                error,
            }),
            Ok(inferred) => {
                let actual = tape.node_shape(i);
                if inferred != actual {
                    errors.push(GraphError::ValueShapeDrift {
                        node: i,
                        op: name,
                        inferred,
                        actual,
                    });
                }
            }
        }
    }

    if !errors.is_empty() {
        return Err(errors);
    }

    // Reverse reachability from the final node (the graph's output).
    if n > 0 {
        let mut reachable = vec![false; n];
        reachable[n - 1] = true;
        for i in (0..n).rev() {
            if !reachable[i] {
                continue;
            }
            for p in tape.node_op(i).parents() {
                reachable[p.index()] = true;
            }
        }
        report.unreachable = (0..n).filter(|&i| !reachable[i]).collect();
    }

    Ok(report)
}

/// Extension trait putting [`check_tape`] on [`Tape`] itself, so call
/// sites read `tape.check()?` (the inherent-method spelling lives here
/// because `rapid-autograd` must not depend back on this crate).
pub trait TapeCheck {
    /// Validates the recorded graph; see [`check_tape`].
    fn check(&self) -> Result<GraphReport, Vec<GraphError>>;
}

impl TapeCheck for Tape {
    fn check(&self) -> Result<GraphReport, Vec<GraphError>> {
        check_tape(self)
    }
}

//! Dense matrix substrate for the RAPID reproduction.
//!
//! Every numerical component in this workspace — the autodiff engine, the
//! neural layers, the baselines, the click simulator — is built on the
//! [`Matrix`] type defined here: a row-major, heap-allocated `f32` matrix
//! with the small set of BLAS-like operations the paper's models need.
//!
//! Design notes:
//!
//! * **Panics over `Result` for shape errors.** Shape mismatches are
//!   programmer errors, not recoverable runtime conditions, so (like
//!   `ndarray`) the arithmetic here panics with a message naming the
//!   operation and both shapes. Nothing in this crate does I/O.
//! * **No external math dependencies.** The matmul is a cache-friendly
//!   `ikj`-ordered triple loop, which is plenty for the paper's model
//!   sizes (hidden sizes 8–64, lists of at most 20 items).
//! * **Deterministic randomness.** All random initialisation takes an
//!   explicit `rand::Rng`, so experiments are reproducible given a seed.
//!
//! # Example
//!
//! ```
//! use rapid_tensor::Matrix;
//!
//! let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
//! let b = Matrix::identity(2);
//! let c = a.matmul(&b);
//! assert_eq!(c, a);
//! ```

mod init;
mod matrix;
mod ops;
// Property tests are orders of magnitude too slow under Miri's
// interpreter; the nightly `cargo miri test` job runs the unit tests
// only.
#[cfg(all(test, not(miri)))]
mod proptests;

pub use init::xavier_bound;
pub use matrix::Matrix;
pub use ops::stable_sigmoid;

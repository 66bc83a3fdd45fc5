//! Property tests for the fused LSTM cell (`Op::LstmCell`):
//!
//! * gradcheck of all six inputs at the relevance-estimator shape
//!   (`B = 1`) and the diversity-estimator shape (`B = m` topic rows),
//!   and of the weights alone from a zero initial state with constant
//!   inputs;
//! * the fused cell against the unfused composition of tape ops it
//!   replaces ([`unfused_step`], kept here as the reference): forward
//!   bit-equal, gradients equal within 1e-5 relative, on random shapes;
//! * the stability lint sees inside the cell: a 20-step sequence raises
//!   `saturating-input-depth` at exactly the same steps either way.

use proptest::run_cases;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rapid_autograd::gradcheck::check_gradients;
use rapid_autograd::{ParamId, ParamStore, Tape, Var};
use rapid_check::lint_stability;
use rapid_tensor::Matrix;

/// The unfused LSTM step (gate order `[i, f, g, o]`): the reference the
/// fused cell must reproduce.
fn unfused_step(tape: &mut Tape, x: Var, h: Var, c: Var, wub: [Var; 3]) -> (Var, Var) {
    let [w, u, b] = wub;
    let hid = tape.value(c).cols();
    let xw = tape.matmul(x, w);
    let hu = tape.matmul(h, u);
    let gates = tape.add(xw, hu);
    let gates = tape.add_row_broadcast(gates, b);
    let i_g = tape.slice_cols(gates, 0, hid);
    let f_g = tape.slice_cols(gates, hid, 2 * hid);
    let g_g = tape.slice_cols(gates, 2 * hid, 3 * hid);
    let o_g = tape.slice_cols(gates, 3 * hid, 4 * hid);
    let i = tape.sigmoid(i_g);
    let f = tape.sigmoid(f_g);
    let g = tape.tanh(g_g);
    let o = tape.sigmoid(o_g);
    let fc = tape.mul(f, c);
    let ig = tape.mul(i, g);
    let c_new = tape.add(fc, ig);
    let ct = tape.tanh(c_new);
    let h_new = tape.mul(o, ct);
    (h_new, c_new)
}

/// The fused step, sliced as `rapid_nn::LstmCell::step` slices it.
fn fused_step(tape: &mut Tape, x: Var, h: Var, c: Var, wub: [Var; 3]) -> (Var, Var) {
    let [w, u, b] = wub;
    let hid = tape.value(c).cols();
    let cell = tape.lstm_cell(x, h, c, w, u, b);
    let h_new = tape.slice_cols(cell, 0, hid);
    let c_new = tape.slice_cols(cell, hid, 2 * hid);
    (h_new, c_new)
}

type Step = fn(&mut Tape, Var, Var, Var, [Var; 3]) -> (Var, Var);

fn rand(rng: &mut StdRng, r: usize, c: usize, scale: f32) -> Matrix {
    Matrix::rand_uniform(r, c, -scale, scale, rng)
}

/// Ids of one cell's inputs in a store: per-step `x`s, then `h0, c0,
/// w, u, b`.
struct CellParams {
    xs: Vec<ParamId>,
    h0: ParamId,
    c0: ParamId,
    wub: [ParamId; 3],
}

fn cell_params(
    rng: &mut StdRng,
    steps: usize,
    batch: usize,
    input: usize,
    hid: usize,
) -> (ParamStore, CellParams) {
    let mut store = ParamStore::new();
    let xs = (0..steps)
        .map(|t| store.add(format!("x{t}"), rand(rng, batch, input, 1.0)))
        .collect();
    let h0 = store.add("h0", rand(rng, batch, hid, 0.8));
    let c0 = store.add("c0", rand(rng, batch, hid, 1.5));
    let wub = [
        store.add("w", rand(rng, input, 4 * hid, 0.7)),
        store.add("u", rand(rng, hid, 4 * hid, 0.7)),
        store.add("b", rand(rng, 1, 4 * hid, 0.5)),
    ];
    (store, CellParams { xs, h0, c0, wub })
}

/// Runs `step` over the sequence and returns every `(h, c)` plus a
/// scalar loss that weights all hidden states and the last cell state
/// by the fixed `mix`.
fn record(
    tape: &mut Tape,
    store: &ParamStore,
    p: &CellParams,
    step: Step,
    mix: &Matrix,
) -> (Vec<(Var, Var)>, Var) {
    let wub = p.wub.map(|id| tape.param(store, id));
    let (mut h, mut c) = (tape.param(store, p.h0), tape.param(store, p.c0));
    let mut states = Vec::new();
    for &x in &p.xs {
        let x = tape.param(store, x);
        (h, c) = step(tape, x, h, c, wub);
        states.push((h, c));
    }
    let mut parts: Vec<Var> = states.iter().map(|&(h, _)| h).collect();
    parts.push(c);
    let all = tape.concat_cols(&parts);
    let m = tape.constant(mix.clone());
    let weighted = tape.mul(all, m);
    let loss = tape.sum_all(weighted);
    (states, loss)
}

#[test]
fn fused_cell_gradchecks_all_six_inputs_at_both_estimator_shapes() {
    // B = 1: one list position of the relevance Bi-LSTM; B = 6: one row
    // per topic in the diversity estimator's behavior LSTM.
    for (seed, batch) in [(1u64, 1usize), (2, 6)] {
        let mut rng = StdRng::seed_from_u64(seed);
        let (mut store, p) = cell_params(&mut rng, 2, batch, 4, 3);
        let mix = rand(&mut rng, batch, 3 * 3, 1.0);
        let report = check_gradients(
            &mut store,
            |tape, store| record(tape, store, &p, fused_step, &mix).1,
            5e-3,
        );
        assert!(report.checked > 0);
        assert!(report.passes(2e-2), "B = {batch}: {report:?}");
    }
}

#[test]
fn fused_cell_gradchecks_weights_from_a_zero_state_with_constant_inputs() {
    for (seed, batch) in [(3u64, 1usize), (4, 6)] {
        let mut rng = StdRng::seed_from_u64(seed);
        let (hid, input) = (3, 4);
        let xs: Vec<Matrix> = (0..3).map(|_| rand(&mut rng, batch, input, 1.0)).collect();
        let target = rand(&mut rng, batch, hid, 0.5);
        let mut store = ParamStore::new();
        let wub = [
            store.add("w", rand(&mut rng, input, 4 * hid, 0.7)),
            store.add("u", rand(&mut rng, hid, 4 * hid, 0.7)),
            store.add("b", rand(&mut rng, 1, 4 * hid, 0.5)),
        ];
        let report = check_gradients(
            &mut store,
            |tape, store| {
                let wub = wub.map(|id| tape.param(store, id));
                let mut h = tape.constant(Matrix::zeros(batch, hid));
                let mut c = tape.constant(Matrix::zeros(batch, hid));
                for x in &xs {
                    let x = tape.constant(x.clone());
                    (h, c) = fused_step(tape, x, h, c, wub);
                }
                tape.mse(h, &target)
            },
            5e-3,
        );
        assert_eq!(report.checked, (input + hid + 1) * 4 * hid);
        assert!(report.passes(2e-2), "B = {batch}: {report:?}");
    }
}

#[test]
fn fused_cell_matches_the_unfused_composition_on_random_shapes() {
    run_cases("fused_lstm_vs_unfused", |rng| {
        let steps = rng.gen_range(1..5usize);
        let batch = rng.gen_range(1..7usize);
        let input = rng.gen_range(1..6usize);
        let hid = rng.gen_range(1..6usize);
        let (store, p) = cell_params(rng, steps, batch, input, hid);
        let mix = rand(rng, batch, (steps + 1) * hid, 1.0);

        let run = |step: Step| {
            let mut store = store.clone();
            let mut tape = Tape::new();
            let (states, loss) = record(&mut tape, &store, &p, step, &mix);
            let values: Vec<(Matrix, Matrix)> = states
                .iter()
                .map(|&(h, c)| (tape.value(h).clone(), tape.value(c).clone()))
                .collect();
            tape.backward(loss, &mut store);
            let grads: Vec<Matrix> = store.ids().map(|id| store.grad(id).clone()).collect();
            (values, grads)
        };
        let (fused_values, fused_grads) = run(fused_step);
        let (ref_values, ref_grads) = run(unfused_step);

        for (t, (fused, reference)) in fused_values.iter().zip(&ref_values).enumerate() {
            assert_eq!(fused.0.as_slice(), reference.0.as_slice(), "h at step {t}");
            assert_eq!(fused.1.as_slice(), reference.1.as_slice(), "c at step {t}");
        }
        for (k, (fused, reference)) in fused_grads.iter().zip(&ref_grads).enumerate() {
            for (a, b) in fused.as_slice().iter().zip(reference.as_slice()) {
                let rel = (a - b).abs() / 1f32.max(a.abs()).max(b.abs());
                assert!(
                    rel <= 1e-5,
                    "param {}: {a} vs {b}",
                    store.name(store.ids().nth(k).unwrap())
                );
            }
        }
    });
}

/// Records a 20-step sequence with `step` and returns, per step, whether
/// the stability lint raised `saturating-input-depth` on a node recorded
/// during that step, plus the total number of such findings.
///
/// Every third step's input comes through three chained products (depth
/// 3), which saturates that step's gates; the cell state deepens by one
/// product per step, which saturates `tanh(c′)` from step 3 on; and each
/// step's `h` feeds two more products into a `tanh`, which saturates
/// only if `h` is tracked deeper than the one product `o ⊙ tanh(c′)`.
fn saturated_steps(step: Step) -> (Vec<bool>, usize) {
    let (batch, input, hid) = (3, 4, 5);
    let mut rng = StdRng::seed_from_u64(20);
    let mut tape = Tape::new();
    let mut store = ParamStore::new();
    let wub = [
        store.add("w", rand(&mut rng, input, 4 * hid, 0.5)),
        store.add("u", rand(&mut rng, hid, 4 * hid, 0.5)),
        store.add("b", rand(&mut rng, 1, 4 * hid, 0.5)),
    ];
    let wub = wub.map(|id| tape.param(&store, id));
    let k = tape.constant(rand(&mut rng, input, input, 0.5));
    let m = tape.constant(rand(&mut rng, hid, hid, 0.5));
    let mut h = tape.constant(Matrix::zeros(batch, hid));
    let mut c = tape.constant(Matrix::zeros(batch, hid));
    let mut step_of_node = vec![None; tape.len()];
    for t in 0..20 {
        let mut x = tape.constant(rand(&mut rng, batch, input, 1.0));
        if t % 3 == 0 {
            for _ in 0..3 {
                x = tape.matmul(x, k);
            }
        }
        (h, c) = step(&mut tape, x, h, c, wub);
        let hm = tape.matmul(h, m);
        let hmm = tape.matmul(hm, m);
        tape.tanh(hmm);
        step_of_node.resize(tape.len(), Some(t));
    }
    let mut flagged = vec![false; 20];
    let mut count = 0;
    for f in lint_stability(&tape) {
        if f.rule == "saturating-input-depth" {
            let t = step_of_node[f.node].expect("findings come from the steps");
            flagged[t] = true;
            count += 1;
        }
    }
    (flagged, count)
}

#[test]
fn stability_lint_flags_the_same_steps_fused_and_unfused() {
    let (fused, fused_count) = saturated_steps(fused_step);
    let (unfused, unfused_count) = saturated_steps(unfused_step);
    assert_eq!(fused, unfused, "steps with saturating-input-depth");
    // Gates saturate at step 0 and the cell state from step 3 on; steps
    // 1 and 2 are clean, so the comparison has both outcomes.
    let expected: Vec<bool> = (0..20).map(|t| t == 0 || t >= 3).collect();
    assert_eq!(fused, expected);
    // One finding per fused cell; the unfused cell raises one per
    // saturated gate activation plus tanh(c′).
    assert_eq!(fused_count, expected.iter().filter(|&&f| f).count());
    assert!(unfused_count > fused_count);
}

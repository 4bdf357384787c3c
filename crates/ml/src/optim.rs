//! The optimizer: Adam, which every fit steps through.

/// Adam with bias correction. State for each parameter tensor is created
/// lazily and keyed by a caller-provided stable slot index.
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: i32,
    state: Vec<Option<(Vec<f32>, Vec<f32>)>>,
}

impl Adam {
    /// Adam with the usual (0.9, 0.999) betas.
    pub fn new(lr: f32) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            state: Vec::new(),
        }
    }

    /// Current learning rate.
    pub fn lr(&self) -> f32 {
        self.lr
    }

    /// Change the learning rate (for simple decay schedules).
    pub fn set_lr(&mut self, lr: f32) {
        self.lr = lr;
    }

    /// Advance the shared timestep. Call once per optimisation step,
    /// before applying any tensor of that step.
    pub fn tick(&mut self) {
        self.t += 1;
    }

    /// Update `param` in place from `grad`. `slot` must be stable across
    /// steps for a given tensor.
    pub fn step(&mut self, slot: usize, param: &mut [f32], grad: &[f32]) {
        assert_eq!(param.len(), grad.len());
        if self.t == 0 {
            self.t = 1; // tolerate a missing first tick()
        }
        if slot >= self.state.len() {
            self.state.resize_with(slot + 1, || None);
        }
        let (m, v) = self.state[slot]
            .get_or_insert_with(|| (vec![0.0; param.len()], vec![0.0; param.len()]));
        assert_eq!(m.len(), param.len(), "slot reused with a different tensor");
        let b1t = 1.0 - self.beta1.powi(self.t);
        let b2t = 1.0 - self.beta2.powi(self.t);
        for i in 0..param.len() {
            m[i] = self.beta1 * m[i] + (1.0 - self.beta1) * grad[i];
            v[i] = self.beta2 * v[i] + (1.0 - self.beta2) * grad[i] * grad[i];
            let mhat = m[i] / b1t;
            let vhat = v[i] / b2t;
            param[i] -= self.lr * mhat / (vhat.sqrt() + self.eps);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adam_minimises_a_quadratic() {
        // f(x) = (x - 3)^2, df/dx = 2(x - 3).
        let mut x = vec![0.0f32];
        let mut opt = Adam::new(0.1);
        for _ in 0..500 {
            opt.tick();
            let g = vec![2.0 * (x[0] - 3.0)];
            opt.step(0, &mut x, &g);
        }
        assert!((x[0] - 3.0).abs() < 1e-2, "x = {}", x[0]);
    }

    #[test]
    fn adam_handles_multiple_slots() {
        let mut a = vec![0.0f32];
        let mut b = vec![10.0f32; 3];
        let mut opt = Adam::new(0.05);
        for _ in 0..800 {
            opt.tick();
            let ga = [2.0 * (a[0] + 1.0)];
            opt.step(0, &mut a, &ga);
            let gb: Vec<f32> = b.iter().map(|&x| 2.0 * (x - 5.0)).collect();
            opt.step(1, &mut b, &gb);
        }
        assert!((a[0] + 1.0).abs() < 1e-2);
        for &x in &b {
            assert!((x - 5.0).abs() < 1e-2);
        }
    }

    #[test]
    #[should_panic(expected = "slot reused")]
    fn slot_reuse_with_wrong_shape_panics() {
        let mut opt = Adam::new(0.1);
        opt.tick();
        opt.step(0, &mut [0.0], &[1.0]);
        opt.step(0, &mut [0.0, 0.0], &[1.0, 1.0]);
    }
}

//! Must-not-fire fixture for `no-libm-tanh`.

pub struct Tape;
pub struct Var;

impl Tape {
    pub fn tanh(&mut self, v: Var) -> Var {
        v
    }
}

pub fn tanh(xs: &mut [f32]) {
    // f32::tanh and x.tanh() in a comment are fine
    let _s = "f32::tanh(x) and x.tanh() in a string";
    kernels::tanh_inplace(xs);
}

pub fn on_the_tape(t: &mut Tape, v: Var) -> Var {
    let w = t.tanh(v);
    Tape::tanh(t, w)
}

pub fn oracle(x: f64) -> f64 {
    // lint:allow(no-libm-tanh): offline table generator, never on a model's path
    x.tanh()
}

#[cfg(test)]
mod tests {
    #[test]
    fn libm_is_the_oracle_in_tests() {
        assert!((0.5f32.tanh() as f64 - 0.5f64.tanh()).abs() < 1e-7);
        let _f: fn(f32) -> f32 = f32::tanh;
    }
}

//! Must-fire fixture for `no-libm-tanh`.

pub fn by_path(xs: &mut [f32]) {
    xs.iter_mut().for_each(|v| *v = f32::tanh(*v));
}

pub fn by_method(x: f32, y: f64) -> f64 {
    let a = x.tanh();
    y.tanh () + f64::from(a)
}

pub fn as_a_function_value(xs: &[f64]) -> Vec<f64> {
    xs.iter().copied().map(f64::tanh).collect()
}

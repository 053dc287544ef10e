//! A thin JSON value over the vendored `serde` tree (whose `Value` has
//! no `Serialize`/`Deserialize` of its own).

use serde::{Deserialize, Serialize, Value};

/// An owned JSON value that the vendored `serde_json` can print and parse.
#[derive(Clone, Debug, PartialEq)]
pub struct Json(pub Value);

impl Serialize for Json {
    fn to_value(&self) -> Value {
        self.0.clone()
    }
}

impl Deserialize for Json {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        Ok(Json(v.clone()))
    }
}

impl Json {
    pub fn null() -> Json {
        Json(Value::Null)
    }

    /// Parses JSON text.
    pub fn parse(text: &str) -> Result<Json, String> {
        serde_json::from_str(text).map_err(|e| e.to_string())
    }

    /// Renders compact JSON text. Non-finite numbers are a caller bug
    /// (every reported value is checked finite first).
    pub fn render(&self) -> String {
        serde_json::to_string(self).expect("finite JSON numbers")
    }

    pub fn get(&self, key: &str) -> Option<Json> {
        self.0.get(key).cloned().map(Json)
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self.0 {
            Value::Num(n) => Some(n),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match &self.0 {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self.0 {
            Value::Bool(b) => Some(b),
            _ => None,
        }
    }

    pub fn items(&self) -> Vec<Json> {
        match &self.0 {
            Value::Arr(a) => a.iter().cloned().map(Json).collect(),
            _ => Vec::new(),
        }
    }

    pub fn fields(&self) -> Vec<(String, Json)> {
        match &self.0 {
            Value::Obj(o) => o
                .iter()
                .map(|(k, v)| (k.clone(), Json(v.clone())))
                .collect(),
            _ => Vec::new(),
        }
    }
}

pub fn num(n: f64) -> Json {
    Json(Value::Num(n))
}

pub fn st(s: &str) -> Json {
    Json(Value::Str(s.to_string()))
}

pub fn boolean(b: bool) -> Json {
    Json(Value::Bool(b))
}

pub fn arr(items: impl IntoIterator<Item = Json>) -> Json {
    Json(Value::Arr(items.into_iter().map(|j| j.0).collect()))
}

pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
    Json(Value::Obj(
        fields.into_iter().map(|(k, v)| (k.into(), v.0)).collect(),
    ))
}

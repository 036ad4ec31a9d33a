//! Order-insensitive document comparison for the ingestion answer gate.

use jt_json::Value;

/// `v` with every object's members sorted by key (stable, so duplicate
/// keys keep their relative order), recursively.
fn key_sorted(v: &Value) -> Value {
    match v {
        Value::Object(members) => {
            let mut m: Vec<(String, Value)> = members
                .iter()
                .map(|(k, x)| (k.clone(), key_sorted(x)))
                .collect();
            m.sort_by(|a, b| a.0.cmp(&b.0));
            Value::Object(m)
        }
        Value::Array(items) => Value::Array(items.iter().map(key_sorted).collect()),
        other => other.clone(),
    }
}

/// Canonical text of a document: key-sorted compact JSON.
pub fn canonical(v: &Value) -> String {
    jt_json::to_string(&key_sorted(v))
}

/// Compare two document collections as multisets of canonical JSON.
/// On a mismatch, the error names the counts and one differing document.
pub fn same_multiset(expected: &[Value], actual: &[Value]) -> Result<(), String> {
    if expected.len() != actual.len() {
        return Err(format!(
            "row count differs: expected {}, got {}",
            expected.len(),
            actual.len()
        ));
    }
    let mut e: Vec<String> = expected.iter().map(canonical).collect();
    let mut a: Vec<String> = actual.iter().map(canonical).collect();
    e.sort_unstable();
    a.sort_unstable();
    match e.iter().zip(&a).find(|(x, y)| x != y) {
        None => Ok(()),
        Some((x, y)) => Err(format!("document differs: expected {x}, got {y}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn docs(texts: &[&str]) -> Vec<Value> {
        texts.iter().map(|t| jt_json::parse(t).unwrap()).collect()
    }

    #[test]
    fn key_order_and_row_order_do_not_matter() {
        let a = docs(&[
            r#"{"a":1,"b":{"y":2,"x":[{"q":1,"p":2}]}}"#,
            r#"{"c":null}"#,
        ]);
        let b = docs(&[
            r#"{"c":null}"#,
            r#"{"b":{"x":[{"p":2,"q":1}],"y":2},"a":1}"#,
        ]);
        assert_eq!(same_multiset(&a, &b), Ok(()));
    }

    #[test]
    fn multiplicity_matters() {
        let a = docs(&[r#"{"a":1}"#, r#"{"a":1}"#, r#"{"a":2}"#]);
        let b = docs(&[r#"{"a":1}"#, r#"{"a":2}"#, r#"{"a":2}"#]);
        assert!(same_multiset(&a, &b).is_err());
    }

    #[test]
    fn corrupted_expected_answer_fails() {
        let actual = docs(&[r#"{"id":1,"s":"x"}"#, r#"{"id":2,"s":"y"}"#]);
        let mut expected = actual.clone();
        expected[1] = jt_json::parse(r#"{"id":2,"s":"z"}"#).unwrap();
        let err = same_multiset(&expected, &actual).unwrap_err();
        assert!(err.contains("\"z\""), "{err}");
        expected.pop();
        assert!(same_multiset(&expected, &actual)
            .unwrap_err()
            .contains("row count"));
    }

    #[test]
    fn array_order_matters() {
        let a = docs(&[r#"{"a":[1,2]}"#]);
        let b = docs(&[r#"{"a":[2,1]}"#]);
        assert!(same_multiset(&a, &b).is_err());
    }
}

//! Strict parsing of `SERVAL_*` values at the binary edge, shared by
//! [`crate::EngineCfg::from_env`] and `serval_net::NetCfg::from_env`. A
//! value a variable does not accept is an error, never a silent default:
//! `SERVAL_CERT=no` used to mean *on* and `SERVAL_JOBS=abc` was ignored.

use std::ffi::OsString;

/// What [`switch`] accepts.
pub const SWITCH: &str = "1|on|true|0|off|false";
/// What [`at_least`]`(1)` accepts.
pub const POSITIVE: &str = "an integer >= 1";

/// Looks variable `name` up with `var` (the process environment in a
/// `from_env`, a closure in tests) and parses its value with `accept`.
/// Unset is `Ok(None)`; a value that is not UTF-8 or that `accept`
/// rejects is an error naming the variable and what it `accepts`.
pub fn parse<T>(
    var: impl FnOnce(&str) -> Option<OsString>,
    name: &str,
    accepts: &str,
    accept: impl FnOnce(&str) -> Option<T>,
) -> Result<Option<T>, String> {
    let Some(raw) = var(name) else { return Ok(None) };
    match raw.to_str().map(str::trim).and_then(accept) {
        Some(v) => Ok(Some(v)),
        None => Err(format!("{name}={raw:?} is not accepted: expected {accepts}")),
    }
}

/// An on/off value: exactly [`SWITCH`].
pub fn switch(v: &str) -> Option<bool> {
    match v {
        "1" | "on" | "true" => Some(true),
        "0" | "off" | "false" => Some(false),
        _ => None,
    }
}

/// A decimal integer no smaller than `min`.
pub fn at_least(min: usize) -> impl Fn(&str) -> Option<usize> {
    move |v| v.parse().ok().filter(|&n| n >= min)
}

/// For `fn main`: unwraps a `from_env` result, or prints the error and
/// exits with status 2.
pub fn or_exit<T>(cfg: Result<T, String>) -> T {
    cfg.unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An environment where every variable is set to `v`.
    fn set(v: &'static str) -> impl Fn(&str) -> Option<OsString> {
        move |_| Some(OsString::from(v))
    }

    #[test]
    fn switches_accept_exactly_six_spellings() {
        for (v, want) in [("1", true), ("on", true), ("true", true), (" 0 ", false)] {
            assert_eq!(parse(set(v), "SERVAL_CERT", SWITCH, switch), Ok(Some(want)));
        }
        assert_eq!(parse(|_| None, "SERVAL_CERT", SWITCH, switch), Ok(None));
        // `no` used to be read as on.
        for v in ["no", "yes", ""] {
            let err = parse(set(v), "SERVAL_CERT", SWITCH, switch).unwrap_err();
            assert!(err.contains("SERVAL_CERT") && err.contains(SWITCH), "{err}");
        }
    }

    #[test]
    fn integers_must_parse_and_clear_the_minimum() {
        assert_eq!(parse(set("4"), "SERVAL_JOBS", POSITIVE, at_least(1)), Ok(Some(4)));
        assert_eq!(parse(set("0"), "SERVAL_JOBS", "an integer", at_least(0)), Ok(Some(0)));
        for v in ["0", "abc", "-1", "2.5", ""] {
            let err = parse(set(v), "SERVAL_JOBS", POSITIVE, at_least(1)).unwrap_err();
            assert!(err.contains("SERVAL_JOBS") && err.contains(POSITIVE), "{err}");
        }
    }

    #[cfg(unix)]
    #[test]
    fn non_utf8_values_are_rejected() {
        use std::os::unix::ffi::OsStringExt;
        let raw = |_: &str| Some(OsString::from_vec(vec![0x66, 0xff]));
        assert!(parse(raw, "SERVAL_CACHE", "a path", |v| Some(v.to_string())).is_err());
    }
}

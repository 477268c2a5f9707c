//! A minimal streaming JSON writer (the benchmark has no dependencies).

use std::fmt::Write;

/// Appends JSON text to a `String`; commas are tracked per nesting level.
#[derive(Default)]
pub struct Json {
    out: String,
    /// One entry per open container: whether it already holds an element.
    filled: Vec<bool>,
    after_key: bool,
}

impl Json {
    fn sep(&mut self) {
        if self.after_key {
            self.after_key = false;
        } else if let Some(filled) = self.filled.last_mut() {
            if *filled {
                self.out.push(',');
            }
            *filled = true;
        }
    }

    /// Writes one value verbatim.
    fn raw(&mut self, text: &str) -> &mut Json {
        self.sep();
        self.out.push_str(text);
        self
    }

    fn open(&mut self, bracket: &str) -> &mut Json {
        self.raw(bracket).filled.push(false);
        self
    }

    fn close(&mut self, bracket: char) -> &mut Json {
        self.filled.pop().expect("close without open");
        self.out.push(bracket);
        self
    }

    pub fn begin_obj(&mut self) -> &mut Json {
        self.open("{")
    }

    pub fn end_obj(&mut self) -> &mut Json {
        self.close('}')
    }

    pub fn begin_arr(&mut self) -> &mut Json {
        self.open("[")
    }

    pub fn end_arr(&mut self) -> &mut Json {
        self.close(']')
    }

    /// Writes an object key; the next value belongs to it.
    pub fn key(&mut self, k: &str) -> &mut Json {
        self.str(k).out.push(':');
        self.after_key = true;
        self
    }

    pub fn str(&mut self, s: &str) -> &mut Json {
        let mut quoted = String::with_capacity(s.len() + 2);
        quoted.push('"');
        for c in s.chars() {
            match c {
                '"' => quoted.push_str("\\\""),
                '\\' => quoted.push_str("\\\\"),
                '\n' => quoted.push_str("\\n"),
                c if (c as u32) < 0x20 => write!(quoted, "\\u{:04x}", c as u32).expect("fmt"),
                c => quoted.push(c),
            }
        }
        quoted.push('"');
        self.raw(&quoted)
    }

    /// A float with every digit needed to round-trip it; non-finite values
    /// have no JSON form and are written as `null`.
    pub fn num(&mut self, v: f64) -> &mut Json {
        self.raw(&if v.is_finite() { v.to_string() } else { "null".to_owned() })
    }

    pub fn uint(&mut self, v: u64) -> &mut Json {
        self.raw(&v.to_string())
    }

    pub fn bool(&mut self, v: bool) -> &mut Json {
        self.raw(if v { "true" } else { "false" })
    }

    /// The finished text.
    ///
    /// # Panics
    ///
    /// Panics if a container is still open.
    pub fn finish(self) -> String {
        assert!(self.filled.is_empty(), "unclosed JSON container");
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_containers_get_commas_in_the_right_places() {
        let mut j = Json::default();
        j.begin_obj();
        j.key("a").uint(1);
        j.key("b").begin_arr().num(1.5).num(-2.0).begin_arr().end_arr().end_arr();
        j.key("c").begin_obj().key("d").bool(true).key("e").bool(false).end_obj();
        j.end_obj();
        assert_eq!(j.finish(), r#"{"a":1,"b":[1.5,-2,[]],"c":{"d":true,"e":false}}"#);
    }

    #[test]
    fn strings_are_escaped() {
        let mut j = Json::default();
        j.str("q\"b\\n\nt\tü");
        assert_eq!(j.finish(), "\"q\\\"b\\\\n\\nt\\u0009ü\"");
    }

    #[test]
    fn floats_keep_all_digits_and_non_finite_is_null() {
        let mut j = Json::default();
        j.begin_arr().num(1.2034).num(0.1 + 0.2).num(f64::NAN).num(f64::INFINITY).end_arr();
        assert_eq!(j.finish(), "[1.2034,0.30000000000000004,null,null]");
    }

    #[test]
    #[should_panic(expected = "unclosed")]
    fn finish_rejects_open_containers() {
        let mut j = Json::default();
        j.begin_obj();
        j.finish();
    }
}

//! Offline stand-in for `serde_derive`.
//!
//! Hand-rolled `#[derive(Serialize)]` / `#[derive(Deserialize)]` built
//! directly on `proc_macro` (no syn/quote — crates.io is unreachable in
//! this build environment). The derives target the streaming traits of
//! the local `serde` shim — `Serialize` writes JSON text, `Deserialize`
//! reads it from the shim's pull parser — and reproduce real serde's JSON
//! shapes for the forms this workspace uses:
//!
//! - named struct    -> object, fields in declaration order
//! - newtype struct  -> the inner value
//! - unit variant    -> string `"Variant"`
//! - newtype variant -> single-key object `{"Variant": payload}`
//!
//! A derived `Deserialize` ignores unknown keys, lets the last of a
//! repeated key win, and reports the first failing field in declaration
//! order (see `serde::de::Field`).
//!
//! Supported attributes: `#[serde(default)]` and
//! `#[serde(default = "path")]`. `Option` fields default to `None` when
//! missing, as with real serde. Generic types, tuple structs and variants
//! of more than one field, unit structs and struct variants are out of
//! scope and produce a compile error pointing here.

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// How a missing field is filled during deserialization.
enum DefaultKind {
    /// No fallback: missing field is an error.
    Required,
    /// `Default::default()` (from `#[serde(default)]` or an `Option` type).
    Std,
    /// A user function named by `#[serde(default = "path")]`.
    Path(String),
}

struct Field {
    name: String,
    default: DefaultKind,
}

struct Variant {
    name: String,
    /// A one-field tuple variant; otherwise a unit variant.
    newtype: bool,
}

enum Data {
    NamedStruct(Vec<Field>),
    /// A one-field tuple struct.
    Newtype,
    Enum(Vec<Variant>),
}

struct Input {
    name: String,
    data: Data,
}

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    expand(input, gen_serialize)
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    expand(input, gen_deserialize)
}

fn expand(input: TokenStream, gen: fn(&Input) -> String) -> TokenStream {
    match parse_input(input) {
        Ok(parsed) => gen(&parsed)
            .parse()
            .expect("serde_derive generated invalid Rust"),
        Err(msg) => format!("compile_error!({msg:?});").parse().unwrap(),
    }
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

type Tokens = std::iter::Peekable<proc_macro::token_stream::IntoIter>;

fn parse_input(input: TokenStream) -> Result<Input, String> {
    let mut toks: Tokens = input.into_iter().peekable();
    skip_attributes(&mut toks);
    skip_visibility(&mut toks);

    let keyword = expect_ident(&mut toks)?;
    let name = expect_ident(&mut toks)?;
    if matches!(toks.peek(), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        return Err(format!(
            "serde shim derive does not support generic type `{name}`"
        ));
    }

    let data = match (keyword.as_str(), toks.next()) {
        ("struct", Some(TokenTree::Group(g))) if g.delimiter() == Delimiter::Brace => {
            Data::NamedStruct(parse_named_fields(g.stream())?)
        }
        ("struct", Some(TokenTree::Group(g)))
            if g.delimiter() == Delimiter::Parenthesis && count_tuple_fields(g.stream()) == 1 =>
        {
            Data::Newtype
        }
        ("enum", Some(TokenTree::Group(g))) if g.delimiter() == Delimiter::Brace => {
            Data::Enum(parse_variants(g.stream())?)
        }
        _ => {
            return Err(format!(
                "serde shim derive supports named structs, one-field tuple structs \
                 and enums; it could not parse the body of `{name}`"
            ))
        }
    };
    Ok(Input { name, data })
}

/// Skips any `#[...]` attributes, returning those that are `#[serde(...)]`
/// as their inner token streams.
fn take_attributes(toks: &mut Tokens) -> Vec<TokenStream> {
    let mut serde_attrs = Vec::new();
    while matches!(toks.peek(), Some(TokenTree::Punct(p)) if p.as_char() == '#') {
        toks.next();
        if let Some(TokenTree::Group(g)) = toks.next() {
            let mut inner = g.stream().into_iter();
            if let (Some(TokenTree::Ident(id)), Some(TokenTree::Group(args))) =
                (inner.next(), inner.next())
            {
                if id.to_string() == "serde" {
                    serde_attrs.push(args.stream());
                }
            }
        }
    }
    serde_attrs
}

fn skip_attributes(toks: &mut Tokens) {
    let _ = take_attributes(toks);
}

fn skip_visibility(toks: &mut Tokens) {
    if matches!(toks.peek(), Some(TokenTree::Ident(id)) if id.to_string() == "pub") {
        toks.next();
        if matches!(toks.peek(), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
        {
            toks.next();
        }
    }
}

fn expect_ident(toks: &mut Tokens) -> Result<String, String> {
    match toks.next() {
        Some(TokenTree::Ident(id)) => Ok(id.to_string()),
        other => Err(format!(
            "serde shim derive expected identifier, found {other:?}"
        )),
    }
}

/// Parses `#[serde(default)]` / `#[serde(default = "path")]` attribute args.
fn parse_default_attr(attrs: &[TokenStream]) -> Result<DefaultKind, String> {
    // A field carries at most one #[serde(...)] attribute in this codebase,
    // so only the first one is interpreted.
    let Some(attr) = attrs.first() else {
        return Ok(DefaultKind::Required);
    };
    let toks: Vec<TokenTree> = attr.clone().into_iter().collect();
    match toks.as_slice() {
        [TokenTree::Ident(id)] if id.to_string() == "default" => Ok(DefaultKind::Std),
        [TokenTree::Ident(id), TokenTree::Punct(eq), TokenTree::Literal(lit)]
            if id.to_string() == "default" && eq.as_char() == '=' =>
        {
            let raw = lit.to_string();
            let path = raw
                .strip_prefix('"')
                .and_then(|s| s.strip_suffix('"'))
                .ok_or_else(|| format!("serde(default = ...) expects a string, got {raw}"))?;
            Ok(DefaultKind::Path(path.to_string()))
        }
        _ => Err(format!(
            "serde shim derive does not support attribute serde({})",
            attr
        )),
    }
}

fn parse_named_fields(body: TokenStream) -> Result<Vec<Field>, String> {
    let mut toks: Tokens = body.into_iter().peekable();
    let mut fields = Vec::new();
    loop {
        if toks.peek().is_none() {
            return Ok(fields);
        }
        let attrs = take_attributes(&mut toks);
        if toks.peek().is_none() {
            return Ok(fields);
        }
        skip_visibility(&mut toks);
        let name = expect_ident(&mut toks)?;
        match toks.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => {}
            other => {
                return Err(format!(
                    "serde shim derive expected `:` after field `{name}`, found {other:?}"
                ))
            }
        }
        // Consume the type up to the next top-level comma. Angle brackets
        // are bare puncts (not groups), so track their depth; a type like
        // `BTreeMap<K, V>` must not split at its inner comma.
        let mut depth = 0i32;
        let mut last_ident_before_generics: Option<String> = None;
        for tok in toks.by_ref() {
            match &tok {
                TokenTree::Punct(p) if p.as_char() == '<' => depth += 1,
                TokenTree::Punct(p) if p.as_char() == '>' => depth -= 1,
                TokenTree::Punct(p) if p.as_char() == ',' && depth == 0 => break,
                TokenTree::Ident(id) if depth == 0 => {
                    last_ident_before_generics = Some(id.to_string());
                }
                _ => {}
            }
        }
        let is_option = last_ident_before_generics.as_deref() == Some("Option");
        let mut default = parse_default_attr(&attrs)?;
        if matches!(default, DefaultKind::Required) && is_option {
            // Real serde treats a missing `Option` field as `None`.
            default = DefaultKind::Std;
        }
        fields.push(Field { name, default });
    }
}

fn count_tuple_fields(body: TokenStream) -> usize {
    let mut count = 0;
    let mut depth = 0i32;
    let mut segment_has_tokens = false;
    for tok in body {
        match &tok {
            TokenTree::Punct(p) if p.as_char() == '<' => depth += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => depth -= 1,
            TokenTree::Punct(p) if p.as_char() == ',' && depth == 0 => {
                if segment_has_tokens {
                    count += 1;
                }
                segment_has_tokens = false;
                continue;
            }
            _ => {}
        }
        segment_has_tokens = true;
    }
    if segment_has_tokens {
        count += 1;
    }
    count
}

fn parse_variants(body: TokenStream) -> Result<Vec<Variant>, String> {
    let mut toks: Tokens = body.into_iter().peekable();
    let mut variants = Vec::new();
    loop {
        if toks.peek().is_none() {
            return Ok(variants);
        }
        skip_attributes(&mut toks);
        if toks.peek().is_none() {
            return Ok(variants);
        }
        let name = expect_ident(&mut toks)?;
        let mut newtype = false;
        // Payload, discriminant, then the separating comma.
        loop {
            match toks.peek() {
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                    if count_tuple_fields(g.stream()) != 1 {
                        return Err(format!(
                            "serde shim derive supports only one-field tuple variants, not `{name}`"
                        ));
                    }
                    newtype = true;
                    toks.next();
                }
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                    return Err(format!(
                        "serde shim derive does not support struct variant `{name}`"
                    ));
                }
                Some(TokenTree::Punct(p)) if p.as_char() == ',' => {
                    toks.next();
                    break;
                }
                None => break,
                _ => {
                    // Discriminant tokens (`= 3`) or similar: skip.
                    toks.next();
                }
            }
        }
        variants.push(Variant { name, newtype });
    }
}

// ---------------------------------------------------------------------------
// Code generation
// ---------------------------------------------------------------------------

fn gen_serialize(input: &Input) -> String {
    let name = &input.name;
    let body = match &input.data {
        Data::NamedStruct(fields) => {
            let mut out = String::from("let mut o = s.object();\n");
            for f in fields {
                out.push_str(&format!("o.field(\"{n}\", &self.{n});\n", n = f.name));
            }
            out.push_str("o.end();");
            out
        }
        Data::Newtype => "::serde::Serialize::serialize(&self.0, s)".to_string(),
        Data::Enum(variants) => {
            let mut arms = String::new();
            for v in variants {
                let vn = &v.name;
                arms.push_str(&if v.newtype {
                    format!(
                        "{name}::{vn}(x) => {{\n\
                         let mut o = s.object();\n\
                         o.field(\"{vn}\", x);\n\
                         o.end();\n\
                         }}\n"
                    )
                } else {
                    format!("{name}::{vn} => s.str(\"{vn}\"),\n")
                });
            }
            format!("match self {{\n{arms}}}")
        }
    };
    format!(
        "#[automatically_derived]\n\
         impl ::serde::Serialize for {name} {{\n\
         fn serialize(&self, s: &mut ::serde::ser::Serializer) {{\n\
         {body}\n\
         }}\n\
         }}\n"
    )
}

fn gen_deserialize(input: &Input) -> String {
    let name = &input.name;
    let body = match &input.data {
        Data::NamedStruct(fields) => {
            let mut slots = String::new();
            let mut arms = String::new();
            let mut finish = String::new();
            for f in fields {
                let n = &f.name;
                let missing = match &f.default {
                    DefaultKind::Required => {
                        format!("Err(::serde::de::Error::missing_field(\"{n}\", \"{name}\"))")
                    }
                    DefaultKind::Std => "Ok(::core::default::Default::default())".to_string(),
                    DefaultKind::Path(path) => format!("Ok({path}())"),
                };
                slots.push_str(&format!("let mut f_{n} = ::serde::de::Field::new();\n"));
                arms.push_str(&format!("\"{n}\" => f_{n}.read(de)?,\n"));
                finish.push_str(&format!("{n}: f_{n}.finish(\"{n}\", || {missing})?,\n"));
            }
            format!(
                "match de.peek()? {{\n\
                 ::serde::de::Kind::Object => de.open_object()?,\n\
                 other => return Err(::serde::de::Error::expected(\"object\", \"{name}\", other)),\n\
                 }}\n\
                 {slots}\
                 while let Some(key) = de.next_key()? {{\n\
                 match &*key {{\n\
                 {arms}\
                 _ => de.skip()?,\n\
                 }}\n\
                 }}\n\
                 Ok({name} {{\n{finish}}})"
            )
        }
        Data::Newtype => format!("Ok({name}(::serde::Deserialize::deserialize(de)?))"),
        Data::Enum(variants) => {
            let mut unit_arms = String::new();
            let mut newtype_arms = String::new();
            for v in variants {
                let vn = &v.name;
                if v.newtype {
                    newtype_arms.push_str(&format!(
                        "\"{vn}\" => Ok({name}::{vn}(\
                         ::serde::de::Field::variant(de, &tag)?\
                         .finish(\"{vn}\", || Err(::serde::de::Error::missing_field(\"{vn}\", \"{name}\")))?)),\n"
                    ));
                } else {
                    unit_arms.push_str(&format!("\"{vn}\" => Ok({name}::{vn}),\n"));
                }
            }
            format!(
                "match de.peek()? {{\n\
                 ::serde::de::Kind::String => match &*de.string()? {{\n\
                 {unit_arms}\
                 other => Err(::serde::de::Error::unknown_variant(other, \"{name}\")),\n\
                 }},\n\
                 ::serde::de::Kind::Object => {{\n\
                 de.open_object()?;\n\
                 let Some(tag) = de.next_key()? else {{\n\
                 return Err(::serde::de::Error::expected(\
                 \"single-key object\", \"{name}\", ::serde::de::Kind::Object));\n\
                 }};\n\
                 match &*tag {{\n\
                 {newtype_arms}\
                 other => Err(::serde::de::Error::unknown_variant(other, \"{name}\")),\n\
                 }}\n\
                 }}\n\
                 other => Err(::serde::de::Error::expected(\"string or object\", \"{name}\", other)),\n\
                 }}"
            )
        }
    };
    format!(
        "#[automatically_derived]\n\
         impl ::serde::Deserialize for {name} {{\n\
         fn deserialize(de: &mut ::serde::de::Deserializer<'_>) -> \
         ::std::result::Result<Self, ::serde::de::Error> {{\n\
         {body}\n\
         }}\n\
         }}\n"
    )
}

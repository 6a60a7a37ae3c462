//! Token normalization and stopword filtering for keyword queries.

/// Normalize a keyword: lower-case and strip surrounding punctuation.
pub fn normalize(word: &str) -> String {
    word.trim_matches(|c: char| !c.is_alphanumeric()).to_lowercase()
}

/// English stopwords — frequent function words that cannot be embedded
/// references and would otherwise flood value mappings.
const STOPWORDS: &[&str] = &[
    "a", "an", "the", "and", "or", "but", "if", "then", "else", "of", "in", "on", "at", "to",
    "for", "from", "by", "with", "about", "as", "into", "through", "after", "before", "is", "are",
    "was", "were", "be", "been", "being", "it", "its", "this", "that", "these", "those", "he",
    "she", "they", "them", "his", "her", "their", "we", "us", "our", "you", "your", "i", "me",
    "my", "not", "no", "yes", "do", "does", "did", "done", "can", "could", "will", "would",
    "shall", "should", "may", "might", "must", "have", "has", "had", "which", "who", "whom",
    "whose", "what", "when", "where", "why", "how", "all", "any", "both", "each", "few", "more",
    "most", "other", "some", "such", "only", "own", "same", "so", "than", "too", "very", "just",
    "also", "there", "here", "out", "up", "down", "over", "under", "again", "further", "once",
    "seems", "seem", "exp", "et", "al",
];

/// Is this (already normalized or raw) word an English stopword?
pub fn is_stopword(word: &str) -> bool {
    let trimmed = word.trim_matches(|c: char| !c.is_alphanumeric());
    // ASCII lower-cases to ASCII, so no allocation is needed to compare
    // it with the (ASCII) list; other text takes the full normalization.
    if trimmed.is_ascii() {
        return STOPWORDS.iter().any(|s| s.eq_ignore_ascii_case(trimmed));
    }
    STOPWORDS.contains(&normalize(word).as_str())
}

/// Split free text into normalized, non-empty words (stopwords retained —
/// callers that want them gone filter explicitly, because position matters
/// for context windows).
pub fn split_words(text: &str) -> Vec<String> {
    text.split_whitespace().map(normalize).filter(|w| !w.is_empty()).collect()
}

/// Light singularization for schema-name matching — the role WordNet's
/// lexical normalization plays in the paper ("genes" must match the
/// `gene` concept). Handles regular plurals only: `-ies` → `-y`,
/// `-sses`/`-shes`/`-ches`/`-xes` → drop `-es`, trailing `-s` → drop
/// (but not `-ss`). Returns `None` when the word is not a recognizable
/// plural.
pub fn singularize(word: &str) -> Option<String> {
    let w = word;
    if w.len() > 3 && w.ends_with("ies") {
        return Some(format!("{}y", &w[..w.len() - 3]));
    }
    for suffix in ["sses", "shes", "ches", "xes"] {
        if w.len() > suffix.len() && w.ends_with(suffix) {
            return Some(w[..w.len() - 2].to_string());
        }
    }
    if w.len() > 2 && w.ends_with('s') && !w.ends_with("ss") {
        return Some(w[..w.len() - 1].to_string());
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalize_strips_punctuation_and_cases() {
        assert_eq!(normalize("JW0014,"), "jw0014");
        assert_eq!(normalize("(grpC)"), "grpc");
        assert_eq!(normalize("..."), "");
        assert_eq!(normalize("G-Actin"), "g-actin", "inner punctuation preserved");
    }

    #[test]
    fn stopwords_detected_case_insensitively() {
        assert!(is_stopword("The"));
        assert!(is_stopword("it,"));
        assert!(!is_stopword("gene"));
        assert!(!is_stopword("JW0013"));
    }

    #[test]
    fn split_words_drops_empties_keeps_stopwords() {
        let words = split_words("From the exp, it seems this gene ...");
        assert!(words.contains(&"the".to_string()));
        assert!(words.contains(&"gene".to_string()));
        assert!(!words.contains(&"".to_string()));
    }

    #[test]
    fn singularize_regular_plurals() {
        assert_eq!(singularize("genes").as_deref(), Some("gene"));
        assert_eq!(singularize("proteins").as_deref(), Some("protein"));
        assert_eq!(singularize("families").as_deref(), Some("family"));
        assert_eq!(singularize("boxes").as_deref(), Some("box"));
        assert_eq!(singularize("classes").as_deref(), Some("class"));
        assert_eq!(singularize("gene"), None);
        assert_eq!(singularize("class"), None, "-ss is not a plural");
        assert_eq!(singularize("as"), None, "too short");
    }
}

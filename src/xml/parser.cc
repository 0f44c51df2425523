#include "xml/parser.h"

#include <cctype>
#include <cstdio>

#include "common/strings.h"

namespace partix::xml {

namespace {

/// Recursive-descent XML parser over a string_view. Tracks line/column for
/// error messages. Enforces the PartiX data model: no mixed content.
class Parser {
 public:
  Parser(std::shared_ptr<NamePool> pool, std::string doc_name,
         std::string_view input)
      : input_(input),
        doc_(std::make_shared<Document>(std::move(pool),
                                        std::move(doc_name))) {}

  Result<std::shared_ptr<Document>> Parse() {
    // One up-front capacity hint keeps node/text growth out of the
    // per-element path; the text arena recycles pooled chunks anyway.
    doc_->ReserveForInputSize(input_.size());
    SkipProlog();
    if (AtEnd()) return Error("document has no root element");
    PARTIX_RETURN_IF_ERROR(ParseElement(kNullNode));
    SkipMisc();
    if (!AtEnd()) return Error("content after root element");
    // Structural labels are assigned at parse time so every stored or
    // transferred document carries them before it is shared across threads.
    doc_->SealLabels();
    return doc_;
  }

 private:
  bool AtEnd() const { return pos_ >= input_.size(); }
  char Peek() const { return input_[pos_]; }
  char PeekAt(size_t off) const {
    return pos_ + off < input_.size() ? input_[pos_ + off] : '\0';
  }

  void Advance() {
    if (input_[pos_] == '\n') {
      ++line_;
      col_ = 1;
    } else {
      ++col_;
    }
    ++pos_;
  }

  bool Consume(char c) {
    if (AtEnd() || Peek() != c) return false;
    Advance();
    return true;
  }

  bool ConsumeSeq(std::string_view seq) {
    if (input_.substr(pos_, seq.size()) != seq) return false;
    for (size_t i = 0; i < seq.size(); ++i) Advance();
    return true;
  }

  void SkipWhitespace() {
    while (!AtEnd() && std::isspace(static_cast<unsigned char>(Peek()))) {
      Advance();
    }
  }

  Status Error(std::string_view msg) const {
    char buf[64];
    std::snprintf(buf, sizeof(buf), " at line %zu, column %zu", line_, col_);
    return Status::ParseError(std::string(msg) + buf + " in document '" +
                              doc_->doc_name() + "'");
  }

  static bool IsNameStart(char c) {
    return std::isalpha(static_cast<unsigned char>(c)) || c == '_' ||
           c == ':';
  }
  static bool IsNameChar(char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
           c == ':' || c == '-' || c == '.';
  }

  /// Skips XML declaration, DOCTYPE, comments, PIs, whitespace.
  void SkipProlog() {
    while (!AtEnd()) {
      SkipWhitespace();
      if (ConsumeSeq("<?")) {
        while (!AtEnd() && !ConsumeSeq("?>")) Advance();
      } else if (ConsumeSeq("<!--")) {
        while (!AtEnd() && !ConsumeSeq("-->")) Advance();
      } else if (ConsumeSeq("<!DOCTYPE")) {
        int depth = 1;
        while (!AtEnd() && depth > 0) {
          if (Peek() == '<') ++depth;
          if (Peek() == '>') --depth;
          Advance();
        }
      } else {
        break;
      }
    }
  }

  void SkipMisc() {
    while (!AtEnd()) {
      SkipWhitespace();
      if (ConsumeSeq("<!--")) {
        while (!AtEnd() && !ConsumeSeq("-->")) Advance();
      } else if (ConsumeSeq("<?")) {
        while (!AtEnd() && !ConsumeSeq("?>")) Advance();
      } else {
        break;
      }
    }
  }

  /// The returned view aliases input_ and stays valid for the parse.
  Result<std::string_view> ParseName() {
    if (AtEnd() || !IsNameStart(Peek())) return Error("expected a name");
    size_t start = pos_;
    while (!AtEnd() && IsNameChar(Peek())) Advance();
    return input_.substr(start, pos_ - start);
  }

  /// Decodes entity and character references in raw character data.
  /// Returns `raw` itself when it contains no references (the common
  /// case — zero copies), otherwise a view of the reused decode scratch,
  /// valid until the next DecodeText call. Callers copy the bytes into
  /// the document immediately.
  Result<std::string_view> DecodeText(std::string_view raw) {
    if (raw.find('&') == std::string_view::npos) return raw;
    std::string& out = decode_scratch_;
    out.clear();
    out.reserve(raw.size());
    for (size_t i = 0; i < raw.size();) {
      if (raw[i] != '&') {
        out.push_back(raw[i]);
        ++i;
        continue;
      }
      size_t semi = raw.find(';', i);
      if (semi == std::string_view::npos) {
        return Error("unterminated entity reference");
      }
      std::string_view ent = raw.substr(i + 1, semi - i - 1);
      if (ent == "amp") {
        out.push_back('&');
      } else if (ent == "lt") {
        out.push_back('<');
      } else if (ent == "gt") {
        out.push_back('>');
      } else if (ent == "quot") {
        out.push_back('"');
      } else if (ent == "apos") {
        out.push_back('\'');
      } else if (!ent.empty() && ent[0] == '#') {
        int64_t code = 0;
        bool ok = false;
        if (ent.size() > 1 && (ent[1] == 'x' || ent[1] == 'X')) {
          code = 0;
          ok = ent.size() > 2;
          for (size_t k = 2; k < ent.size() && ok; ++k) {
            char c = ent[k];
            int digit;
            if (c >= '0' && c <= '9') {
              digit = c - '0';
            } else if (c >= 'a' && c <= 'f') {
              digit = c - 'a' + 10;
            } else if (c >= 'A' && c <= 'F') {
              digit = c - 'A' + 10;
            } else {
              ok = false;
              break;
            }
            code = code * 16 + digit;
          }
        } else {
          ok = ParseInt64(ent.substr(1), &code);
        }
        if (!ok || code <= 0 || code > 0x10FFFF) {
          return Error("bad character reference");
        }
        AppendUtf8(&out, static_cast<uint32_t>(code));
      } else {
        return Error("unknown entity '&" + std::string(ent) + ";'");
      }
      i = semi + 1;
    }
    return std::string_view(out);
  }

  static void AppendUtf8(std::string* out, uint32_t cp) {
    if (cp < 0x80) {
      out->push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  Status ParseAttributes(NodeId element) {
    while (true) {
      SkipWhitespace();
      if (AtEnd()) return Error("unterminated start tag");
      if (Peek() == '>' || Peek() == '/') return Status::Ok();
      PARTIX_ASSIGN_OR_RETURN(std::string_view attr_name, ParseName());
      SkipWhitespace();
      if (!Consume('=')) return Error("expected '=' after attribute name");
      SkipWhitespace();
      char quote = AtEnd() ? '\0' : Peek();
      if (quote != '"' && quote != '\'') {
        return Error("expected quoted attribute value");
      }
      Advance();
      size_t start = pos_;
      while (!AtEnd() && Peek() != quote) {
        if (Peek() == '<') return Error("'<' in attribute value");
        Advance();
      }
      if (AtEnd()) return Error("unterminated attribute value");
      std::string_view raw = input_.substr(start, pos_ - start);
      Advance();  // closing quote
      PARTIX_ASSIGN_OR_RETURN(std::string_view decoded, DecodeText(raw));
      doc_->AppendAttribute(element, attr_name, decoded);
    }
  }

  Status ParseElement(NodeId parent) {
    if (depth_ >= kMaxDepth) {
      return Error("document nesting exceeds the supported depth");
    }
    ++depth_;
    Status status = ParseElementInner(parent);
    --depth_;
    return status;
  }

  Status ParseElementInner(NodeId parent) {
    if (!Consume('<')) return Error("expected '<'");
    PARTIX_ASSIGN_OR_RETURN(std::string_view name, ParseName());
    NodeId element = parent == kNullNode ? doc_->CreateRoot(name)
                                         : doc_->AppendElement(parent, name);
    PARTIX_RETURN_IF_ERROR(ParseAttributes(element));
    if (Consume('/')) {
      if (!Consume('>')) return Error("expected '>' after '/'");
      return Status::Ok();
    }
    if (!Consume('>')) return Error("expected '>' to close start tag");
    return ParseContent(element, name);
  }

  Status ParseContent(NodeId element, std::string_view name) {
    bool saw_element_child = false;
    bool saw_text_child = false;
    while (true) {
      if (AtEnd()) {
        return Error("unexpected end of input in <" + std::string(name) +
                     ">");
      }
      if (Peek() == '<') {
        if (PeekAt(1) == '/') {
          // End tag.
          Advance();
          Advance();
          PARTIX_ASSIGN_OR_RETURN(std::string_view end_name, ParseName());
          if (end_name != name) {
            return Error("mismatched end tag </" + std::string(end_name) +
                         ">, expected </" + std::string(name) + ">");
          }
          SkipWhitespace();
          if (!Consume('>')) return Error("expected '>' in end tag");
          return Status::Ok();
        }
        if (ConsumeSeq("<!--")) {
          bool closed = false;
          while (!AtEnd()) {
            if (ConsumeSeq("-->")) {
              closed = true;
              break;
            }
            Advance();
          }
          if (!closed) return Error("unterminated comment");
          continue;
        }
        if (ConsumeSeq("<![CDATA[")) {
          size_t start = pos_;
          size_t end = input_.find("]]>", pos_);
          if (end == std::string_view::npos) {
            return Error("unterminated CDATA section");
          }
          std::string_view data = input_.substr(start, end - start);
          while (pos_ < end + 3) Advance();
          if (saw_element_child) {
            return Error("mixed content is not supported");
          }
          doc_->AppendText(element, data);
          saw_text_child = true;
          continue;
        }
        if (ConsumeSeq("<?")) {
          while (!AtEnd() && !ConsumeSeq("?>")) Advance();
          continue;
        }
        // Child element.
        if (saw_text_child) return Error("mixed content is not supported");
        saw_element_child = true;
        PARTIX_RETURN_IF_ERROR(ParseElement(element));
        continue;
      }
      // Character data up to next '<'.
      size_t start = pos_;
      while (!AtEnd() && Peek() != '<') Advance();
      std::string_view raw = input_.substr(start, pos_ - start);
      if (StripWhitespace(raw).empty()) continue;  // ignorable whitespace
      if (saw_element_child) return Error("mixed content is not supported");
      PARTIX_ASSIGN_OR_RETURN(std::string_view decoded, DecodeText(raw));
      doc_->AppendText(element, decoded);
      saw_text_child = true;
    }
  }

  /// Documents deeper than this are rejected instead of risking stack
  /// exhaustion in the recursive-descent parser and the recursive tree
  /// walks downstream.
  static constexpr size_t kMaxDepth = 512;

  std::string_view input_;
  std::shared_ptr<Document> doc_;
  /// Reused across DecodeText calls; one allocation serves every
  /// reference-bearing text in the document.
  std::string decode_scratch_;
  size_t pos_ = 0;
  size_t line_ = 1;
  size_t col_ = 1;
  size_t depth_ = 0;
};

thread_local uint64_t t_parse_count = 0;

}  // namespace

Result<std::shared_ptr<Document>> ParseXml(std::shared_ptr<NamePool> pool,
                                           std::string doc_name,
                                           std::string_view input) {
  ++t_parse_count;
  Parser parser(std::move(pool), std::move(doc_name), input);
  return parser.Parse();
}

uint64_t ThreadParseCount() { return t_parse_count; }

}  // namespace partix::xml

#ifndef PARTIX_XML_PARSER_H_
#define PARTIX_XML_PARSER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "common/result.h"
#include "xml/document.h"

namespace partix::xml {

/// Parses an XML document from `input` into a Document using `pool` for
/// name interning.
///
/// Supported: the XML declaration, elements, attributes (single or double
/// quoted), character data, CDATA sections, comments, processing
/// instructions (skipped), the five predefined entities and decimal/hex
/// character references. DOCTYPE declarations are skipped without being
/// processed. Whitespace-only text between elements is dropped (the PartiX
/// data model has no mixed content); any other text adjacent to element
/// siblings is a well-formedness error under this data model.
///
/// Returns kParseError with a line/column-annotated message on malformed
/// input.
Result<std::shared_ptr<Document>> ParseXml(std::shared_ptr<NamePool> pool,
                                           std::string doc_name,
                                           std::string_view input);

/// Monotonic count of ParseXml invocations on the calling thread. The
/// coordinator composes joined documents in memory, so a join execution
/// parses no XML on the coordinator thread; tests and debug assertions
/// diff this counter around an execution to prove it (the XML twin of
/// xquery::ThreadParseCount).
uint64_t ThreadParseCount();

}  // namespace partix::xml

#endif  // PARTIX_XML_PARSER_H_

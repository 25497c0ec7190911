// XmlObject: a binding to an XML *object* in the sense of §3.1/§4.2 of the
// paper — an element, an attribute as a whole, a single IDREF entry within an
// IDREFS list, or a PCDATA node. Path expressions and the XQuery-update
// executor pass these around; update primitives consume them.
#ifndef XUPD_XPATH_OBJECT_H_
#define XUPD_XPATH_OBJECT_H_

#include <cstddef>
#include <string>

#include "xml/document.h"
#include "xml/node.h"

namespace xupd::xpath {

struct XmlObject {
  enum class Kind {
    kNull,
    kElement,   ///< element = the element itself.
    kAttribute, ///< element = owner, name = attribute name.
    kRefEntry,  ///< element = owner, name = IDREFS name, index = entry index.
    kText,      ///< element = owner, text = the PCDATA node (stable handle).
  };

  Kind kind = Kind::kNull;
  xml::Element* element = nullptr;
  std::string name;
  size_t index = 0;
  xml::Text* text = nullptr;

  /// Position of this object within the step/FOR evaluation that produced it
  /// (0-based); backs the paper's index() function (Example 5).
  size_t binding_index = 0;

  static XmlObject Null() { return XmlObject{}; }
  static XmlObject OfElement(xml::Element* e) {
    XmlObject o;
    o.kind = Kind::kElement;
    o.element = e;
    return o;
  }
  static XmlObject OfAttribute(xml::Element* owner, std::string attr) {
    XmlObject o;
    o.kind = Kind::kAttribute;
    o.element = owner;
    o.name = std::move(attr);
    return o;
  }
  static XmlObject OfRefEntry(xml::Element* owner, std::string list, size_t i) {
    XmlObject o;
    o.kind = Kind::kRefEntry;
    o.element = owner;
    o.name = std::move(list);
    o.index = i;
    return o;
  }
  static XmlObject OfText(xml::Element* owner, xml::Text* node) {
    XmlObject o;
    o.kind = Kind::kText;
    o.element = owner;
    o.text = node;
    return o;
  }

  bool is_null() const { return kind == Kind::kNull; }
  bool is_element() const { return kind == Kind::kElement; }
  bool is_attribute() const { return kind == Kind::kAttribute; }
  bool is_ref_entry() const { return kind == Kind::kRefEntry; }
  bool is_text() const { return kind == Kind::kText; }
};

/// The string value of an object: element -> concatenated direct PCDATA,
/// attribute -> value, IDREF entry -> target ID, text -> text value.
std::string StringValueOf(const XmlObject& obj);

}  // namespace xupd::xpath

#endif  // XUPD_XPATH_OBJECT_H_

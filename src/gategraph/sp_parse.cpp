#include "gategraph/sp_parse.hpp"

#include <cctype>

#include "util/error.hpp"

namespace tr::gategraph {

namespace {

/// Recursive-descent parser over a cursor into the encoded text.
class Parser {
public:
  explicit Parser(std::string_view text) : text_(text) {}

  SpNode parse() {
    SpNode node = parse_tree();
    require(pos_ == text_.size(),
            "parse_sp_tree: trailing characters after tree: '",
            text_.substr(pos_), "'");
    return node;
  }

private:
  [[noreturn]] void fail(const std::string& message) const {
    throw Error("parse_sp_tree: " + message + " at offset " +
                std::to_string(pos_) + " in '" + std::string(text_) + "'");
  }

  char peek() const {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  SpNode parse_tree() {
    switch (peek()) {
      case 'T': return parse_leaf();
      case 'S': return parse_composite(SpNode::Kind::series);
      case 'P': return parse_composite(SpNode::Kind::parallel);
      default: fail("expected 'T', 'S' or 'P'");
    }
  }

  SpNode parse_leaf() {
    expect('T');
    if (pos_ >= text_.size() ||
        !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      fail("expected input index after 'T'");
    }
    int index = 0;
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      index = index * 10 + (text_[pos_] - '0');
      require(index <= 1'000'000, "parse_sp_tree: input index overflow");
      ++pos_;
    }
    return SpNode::transistor(index);
  }

  SpNode parse_composite(SpNode::Kind kind) {
    ++pos_;  // consume 'S' / 'P'
    expect('(');
    std::vector<SpNode> children;
    children.push_back(parse_tree());
    while (peek() == ',') {
      ++pos_;
      children.push_back(parse_tree());
    }
    expect(')');
    if (children.size() < 2) fail("composite needs at least two children");
    return kind == SpNode::Kind::series
               ? SpNode::series(std::move(children))
               : SpNode::parallel(std::move(children));
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

SpNode parse_sp_tree(std::string_view text) { return Parser(text).parse(); }

GateTopology topology_from_key(std::string_view key, int input_count) {
  const std::size_t bar = key.find('|');
  require(bar != std::string_view::npos,
          "topology_from_key: key must be '<nmos>|<pmos>', got '", key, "'");
  SpNode nmos = parse_sp_tree(key.substr(0, bar));
  SpNode pmos = parse_sp_tree(key.substr(bar + 1));
  return GateTopology(std::move(nmos), std::move(pmos), input_count);
}

}  // namespace tr::gategraph

#include "src/core/provenance.h"

#include <algorithm>

#include "src/util/strings.h"

namespace pass::core {
namespace {

// Value tags on the wire.
enum class ValueTag : uint8_t {
  kNone = 0,
  kInt = 1,
  kReal = 2,
  kBool = 3,
  kString = 4,
  kObjectRef = 5,
};

uint64_t Mix(uint64_t h, uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  return h;
}

uint64_t HashBytes(std::string_view s) {
  uint64_t h = 1469598103934665603ull;  // FNV-1a 64
  for (char c : s) {
    h ^= static_cast<uint8_t>(c);
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace

std::string ObjectRef::ToString() const {
  return StrFormat("p%llu.v%u", static_cast<unsigned long long>(pnode),
                   version);
}

std::string_view AttrName(Attr attr) {
  switch (attr) {
    case Attr::kInput:
      return "INPUT";
    case Attr::kName:
      return "NAME";
    case Attr::kType:
      return "TYPE";
    case Attr::kArgv:
      return "ARGV";
    case Attr::kEnv:
      return "ENV";
    case Attr::kPid:
      return "PID";
    case Attr::kFreeze:
      return "FREEZE";
    case Attr::kBeginTxn:
      return "BEGINTXN";
    case Attr::kEndTxn:
      return "ENDTXN";
    case Attr::kParams:
      return "PARAMS";
    case Attr::kVisitedUrl:
      return "VISITED_URL";
    case Attr::kFileUrl:
      return "FILE_URL";
    case Attr::kCurrentUrl:
      return "CURRENT_URL";
    case Attr::kAnnotation:
      return "ANNOTATION";
  }
  return "UNKNOWN";
}

std::string ValueToString(const Value& v) {
  struct Visitor {
    std::string operator()(std::monostate) const { return "-"; }
    std::string operator()(int64_t i) const {
      return StrFormat("%lld", static_cast<long long>(i));
    }
    std::string operator()(double d) const { return StrFormat("%g", d); }
    std::string operator()(bool b) const { return b ? "true" : "false"; }
    std::string operator()(const std::string& s) const { return s; }
    std::string operator()(const ObjectRef& r) const { return r.ToString(); }
  };
  return std::visit(Visitor{}, v);
}

std::string Record::ToString() const {
  std::string name = attr == Attr::kAnnotation ? key
                                               : std::string(AttrName(attr));
  return name + "=" + ValueToString(value);
}

Record Record::Input(ObjectRef ancestor) {
  return Record{Attr::kInput, {}, ancestor};
}
Record Record::Name(std::string name) {
  return Record{Attr::kName, {}, std::move(name)};
}
Record Record::Type(std::string type) {
  return Record{Attr::kType, {}, std::move(type)};
}
Record Record::Annotation(std::string key, Value value) {
  return Record{Attr::kAnnotation, std::move(key), std::move(value)};
}
Record Record::Of(Attr attr, Value value) {
  return Record{attr, {}, std::move(value)};
}

void EncodeObjectRef(std::string* out, const ObjectRef& ref) {
  PutU64(out, ref.pnode);
  PutU32(out, ref.version);
}

Result<ObjectRef> DecodeObjectRef(Decoder* in) {
  ObjectRef ref;
  PASS_ASSIGN_OR_RETURN(ref.pnode, in->U64());
  PASS_ASSIGN_OR_RETURN(ref.version, in->U32());
  return ref;
}

void EncodeRecord(std::string* out, const Record& record) {
  PutU16(out, static_cast<uint16_t>(record.attr));
  PutBytes(out, record.key);
  struct Visitor {
    std::string* out;
    void operator()(std::monostate) const {
      PutU8(out, static_cast<uint8_t>(ValueTag::kNone));
    }
    void operator()(int64_t i) const {
      PutU8(out, static_cast<uint8_t>(ValueTag::kInt));
      PutI64(out, i);
    }
    void operator()(double d) const {
      PutU8(out, static_cast<uint8_t>(ValueTag::kReal));
      PutF64(out, d);
    }
    void operator()(bool b) const {
      PutU8(out, static_cast<uint8_t>(ValueTag::kBool));
      PutU8(out, b ? 1 : 0);
    }
    void operator()(const std::string& s) const {
      PutU8(out, static_cast<uint8_t>(ValueTag::kString));
      PutBytes(out, s);
    }
    void operator()(const ObjectRef& r) const {
      PutU8(out, static_cast<uint8_t>(ValueTag::kObjectRef));
      EncodeObjectRef(out, r);
    }
  };
  std::visit(Visitor{out}, record.value);
}

Result<Record> DecodeRecord(Decoder* in) {
  Record record;
  PASS_ASSIGN_OR_RETURN(uint16_t attr, in->U16());
  record.attr = static_cast<Attr>(attr);
  PASS_ASSIGN_OR_RETURN(record.key, in->Bytes());
  PASS_ASSIGN_OR_RETURN(uint8_t tag, in->U8());
  switch (static_cast<ValueTag>(tag)) {
    case ValueTag::kNone:
      record.value = std::monostate{};
      break;
    case ValueTag::kInt: {
      PASS_ASSIGN_OR_RETURN(int64_t v, in->I64());
      record.value = v;
      break;
    }
    case ValueTag::kReal: {
      PASS_ASSIGN_OR_RETURN(double v, in->F64());
      record.value = v;
      break;
    }
    case ValueTag::kBool: {
      PASS_ASSIGN_OR_RETURN(uint8_t v, in->U8());
      record.value = v != 0;
      break;
    }
    case ValueTag::kString: {
      PASS_ASSIGN_OR_RETURN(std::string v, in->Bytes());
      record.value = std::move(v);
      break;
    }
    case ValueTag::kObjectRef: {
      PASS_ASSIGN_OR_RETURN(ObjectRef v, DecodeObjectRef(in));
      record.value = v;
      break;
    }
    default:
      return Corrupt("bad value tag in record");
  }
  return record;
}

size_t EncodedSize(const Record& record) {
  std::string tmp;
  EncodeRecord(&tmp, record);
  return tmp.size();
}

void EncodeBundle(std::string* out, const Bundle& bundle) {
  PutU32(out, static_cast<uint32_t>(bundle.size()));
  for (const BundleEntry& entry : bundle) {
    EncodeObjectRef(out, entry.target);
    PutU32(out, static_cast<uint32_t>(entry.records.size()));
    for (const Record& record : entry.records) {
      EncodeRecord(out, record);
    }
  }
}

Result<Bundle> DecodeBundle(Decoder* in) {
  PASS_ASSIGN_OR_RETURN(uint32_t entries, in->U32());
  Bundle bundle;
  // The counts are untrusted (PA-NFS requests decode here): a corrupt one
  // must fail per-item below, not blow up a reserve. Every encoded entry
  // and record takes at least one byte of input.
  bundle.reserve(std::min<size_t>(entries, in->remaining()));
  for (uint32_t i = 0; i < entries; ++i) {
    BundleEntry entry;
    PASS_ASSIGN_OR_RETURN(entry.target, DecodeObjectRef(in));
    PASS_ASSIGN_OR_RETURN(uint32_t count, in->U32());
    entry.records.reserve(std::min<size_t>(count, in->remaining()));
    for (uint32_t j = 0; j < count; ++j) {
      PASS_ASSIGN_OR_RETURN(Record record, DecodeRecord(in));
      entry.records.push_back(std::move(record));
    }
    bundle.push_back(std::move(entry));
  }
  return bundle;
}

void AppendToBundle(Bundle* bundle, const ObjectRef& subject,
                    const Record& record) {
  if (!bundle->empty() && bundle->back().target == subject) {
    bundle->back().records.push_back(record);
    return;
  }
  bundle->push_back(BundleEntry{subject, {record}});
}

size_t BundleRecordCount(const Bundle& bundle) {
  size_t count = 0;
  for (const BundleEntry& entry : bundle) {
    count += entry.records.size();
  }
  return count;
}

uint64_t RecordHash(const Record& record) {
  uint64_t h = static_cast<uint64_t>(record.attr);
  h = Mix(h, HashBytes(record.key));
  struct Visitor {
    uint64_t operator()(std::monostate) const { return 0; }
    uint64_t operator()(int64_t i) const { return static_cast<uint64_t>(i); }
    uint64_t operator()(double d) const {
      uint64_t bits;
      static_assert(sizeof(bits) == sizeof(d));
      __builtin_memcpy(&bits, &d, sizeof(bits));
      return bits;
    }
    uint64_t operator()(bool b) const { return b ? 1 : 2; }
    uint64_t operator()(const std::string& s) const { return HashBytes(s); }
    uint64_t operator()(const ObjectRef& r) const {
      return Mix(r.pnode, r.version);
    }
  };
  h = Mix(h, record.value.index());
  h = Mix(h, std::visit(Visitor{}, record.value));
  return h;
}

}  // namespace pass::core

#include "tracer.hh"

#include <cstdio>

namespace perfbench
{

std::string
Span::layer() const
{
    return name.substr(0, name.find('.'));
}

Tracer::Tracer(bool enabled)
    : enabled_(enabled), origin_(std::chrono::steady_clock::now())
{}

double
Tracer::now() const
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         origin_)
        .count();
}

Tracer::Scope::Scope(Tracer &tracer, const std::string &name)
    : tracer_(tracer)
{
    if (!tracer_.enabled_)
        return;
    Span span;
    span.name = name;
    span.parent = tracer_.open_.empty() ? -1 : tracer_.open_.back();
    span.job = tracer_.job_;
    index_ = static_cast<int>(tracer_.spans_.size());
    tracer_.spans_.push_back(std::move(span));
    tracer_.open_.push_back(index_);
    // Stamp last so the bookkeeping above is not charged to the span.
    tracer_.spans_[index_].start = tracer_.now();
}

Tracer::Scope::~Scope()
{
    if (index_ < 0)
        return;
    tracer_.spans_[index_].end = tracer_.now();
    tracer_.open_.pop_back();
}

std::map<std::string, SpanTotals>
Tracer::totals() const
{
    std::map<std::string, SpanTotals> out;
    for (const Span &span : spans_) {
        SpanTotals &t = out[span.name];
        ++t.count;
        t.seconds += span.seconds();
    }
    return out;
}

std::map<std::string, double>
Tracer::selfSeconds(const std::string &root) const
{
    // Children of one parent never overlap (spans nest on one thread),
    // so a parent's covered time is the sum of its children's. A parent
    // is always recorded before its children.
    std::vector<double> childSeconds(spans_.size(), 0.0);
    std::vector<std::size_t> rootOf(spans_.size(), 0);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const int parent = spans_[i].parent;
        rootOf[i] = parent < 0 ? i : rootOf[parent];
        if (parent >= 0)
            childSeconds[parent] += spans_[i].seconds();
    }
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        if (spans_[rootOf[i]].name == root)
            out[spans_[i].name] += spans_[i].seconds() - childSeconds[i];
    }
    return out;
}

bool
Tracer::writeChromeJson(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    std::fprintf(f, "{\"traceEvents\": [");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &span = spans_[i];
        std::fprintf(f,
                     "%s\n{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                     "\"pid\": 1, \"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, "
                     "\"args\": {\"id\": %zu, \"parent\": %d, \"job\": "
                     "%llu}}",
                     i == 0 ? "" : ",", span.name.c_str(),
                     span.layer().c_str(), span.start * 1e6,
                     span.seconds() * 1e6, i, span.parent,
                     static_cast<unsigned long long>(span.job));
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
}

} // namespace perfbench

#include "api/method_registry.hpp"

#include <stdexcept>

#include "baselines/opentuner_like.hpp"
#include "baselines/random_search.hpp"
#include "baselines/ytopt_like.hpp"
#include "core/names.hpp"
#include "core/tuner.hpp"

namespace baco {

namespace {

std::unique_ptr<AskTellTuner>
make_baco(const SearchSpace& space, const MethodSpec& spec,
          bool minus_minus)
{
    TunerOptions opt = minus_minus ? TunerOptions::baco_minus_minus()
                                   : TunerOptions::baco_defaults();
    opt.budget = spec.budget;
    opt.doe_samples = spec.doe_samples;
    opt.seed = spec.seed;
    return std::make_unique<Tuner>(space, opt);
}

std::unique_ptr<AskTellTuner>
make_opentuner(const SearchSpace& space, const MethodSpec& spec)
{
    OpenTunerLike::Options opt;
    opt.budget = spec.budget;
    opt.doe_samples = spec.doe_samples;
    opt.seed = spec.seed;
    return std::make_unique<OpenTunerLike>(space, opt);
}

std::unique_ptr<AskTellTuner>
make_ytopt(const SearchSpace& space, const MethodSpec& spec, bool gp)
{
    YtoptLike::Options opt;
    opt.budget = spec.budget;
    opt.doe_samples = spec.doe_samples;
    opt.seed = spec.seed;
    opt.surrogate = gp ? YtoptLike::Surrogate::kGaussianProcess
                       : YtoptLike::Surrogate::kRandomForest;
    return std::make_unique<YtoptLike>(space, opt);
}

std::unique_ptr<AskTellTuner>
make_random(const SearchSpace& space, const MethodSpec& spec,
            bool biased_walk)
{
    RandomSearchOptions opt;
    opt.budget = spec.budget;
    opt.seed = spec.seed;
    return std::make_unique<RandomSearchTuner>(space, opt, biased_walk);
}

}  // namespace

MethodRegistry::MethodRegistry()
{
    using S = const SearchSpace&;
    using M = const MethodSpec&;
    add("baco", [](S s, M m) { return make_baco(s, m, false); });
    add("baco--", [](S s, M m) { return make_baco(s, m, true); });
    add("opentuner", [](S s, M m) { return make_opentuner(s, m); },
        {"ATF"});
    add("ytopt", [](S s, M m) { return make_ytopt(s, m, false); });
    add("ytopt-gp", [](S s, M m) { return make_ytopt(s, m, true); },
        {"Ytopt(GP)"});
    add("random", [](S s, M m) { return make_random(s, m, false); },
        {"Uniform"});
    add("cot", [](S s, M m) { return make_random(s, m, true); },
        {"CoT-sampling"});
}

MethodRegistry&
MethodRegistry::global()
{
    static MethodRegistry registry;
    return registry;
}

void
MethodRegistry::add(const std::string& name, MethodFactory factory,
                    const std::vector<std::string>& aliases)
{
    if (name.empty() || !factory)
        throw std::invalid_argument("method name and factory required");
    MutexLock lock(mutex_);
    // Validate every claim before writing any, so a conflicting alias
    // cannot leave the method half-registered (resolvable but without
    // a factory).
    auto check = [&](const std::string& key) {
        auto it = index_.find(fold_name(key));
        if (it != index_.end() && it->second.canonical != name)
            throw std::invalid_argument(
                "method name '" + key + "' already registered for '" +
                it->second.canonical + "'");
    };
    check(name);
    for (const std::string& alias : aliases)
        check(alias);
    index_[fold_name(name)] = IndexEntry{name, name};
    for (const std::string& alias : aliases)
        index_[fold_name(alias)] = IndexEntry{name, alias};
    factories_[name] = std::move(factory);
}

bool
MethodRegistry::contains(const std::string& name) const
{
    return resolve(name).has_value();
}

std::optional<std::string>
MethodRegistry::resolve(const std::string& name) const
{
    MutexLock lock(mutex_);
    auto it = index_.find(fold_name(name));
    if (it == index_.end())
        return std::nullopt;
    return it->second.canonical;
}

std::unique_ptr<AskTellTuner>
MethodRegistry::make(const std::string& name, const SearchSpace& space,
                     const MethodSpec& spec) const
{
    MethodFactory factory;
    {
        MutexLock lock(mutex_);
        auto it = index_.find(fold_name(name));
        if (it != index_.end())
            factory = factories_.at(it->second.canonical);
    }
    if (!factory) {
        std::vector<std::string> known = names();  // canonical, sorted
        // Suggestions rank over alias spellings too — "Unifrm" should
        // offer 'Uniform' even though the canonical name is "random".
        std::vector<std::string> spellings = known;
        for (const auto& [alias, canonical] : aliases()) {
            (void)canonical;
            spellings.push_back(alias);
        }
        std::string msg = "unknown method '" + name + "'" +
                          did_you_mean(name, spellings) +
                          "; registered: ";
        for (std::size_t i = 0; i < known.size(); ++i)
            msg += (i > 0 ? ", " : "") + known[i];
        throw std::runtime_error(msg);
    }
    return factory(space, spec);
}

std::vector<std::string>
MethodRegistry::names() const
{
    MutexLock lock(mutex_);
    std::vector<std::string> out;
    out.reserve(factories_.size());
    for (const auto& [name, factory] : factories_) {
        (void)factory;
        out.push_back(name);
    }
    return out;
}

std::vector<std::pair<std::string, std::string>>
MethodRegistry::aliases() const
{
    MutexLock lock(mutex_);
    std::vector<std::pair<std::string, std::string>> out;
    for (const auto& [key, entry] : index_) {
        if (key != fold_name(entry.canonical))
            out.emplace_back(entry.spelling, entry.canonical);
    }
    return out;
}

}  // namespace baco
